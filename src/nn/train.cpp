#include "nn/train.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "common/debug_hooks.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "nn/inference.hpp"
#include "nn/optimizer.hpp"

namespace dl2f::nn {

TrainReport train(Sequential& model, const Tensor3& input_shape, float learning_rate,
                  std::size_t item_count, const StageFn& stage, const LossFn& loss,
                  const TrainConfig& cfg) {
  Rng rng(cfg.seed);
  model.init_weights(rng);
  Adam optimizer(model.params(), learning_rate);
  TrainReport report;
  if (item_count == 0 || cfg.epochs <= 0) return report;
  const std::int32_t threads = std::clamp(cfg.threads, 1, 16);
  constexpr std::int32_t max_slices = (kBatchSize + kGradSliceSamples - 1) / kGradSliceSamples;

  // Per-worker arenas (bound lazily ON the worker thread so each worker's
  // buffers come from its own malloc arena) and per-slice gradient
  // buffers — the fixed-order reduction unit.
  std::vector<InferenceContext> contexts(static_cast<std::size_t>(threads));
  std::vector<GradientBuffer> slice_grads(static_cast<std::size_t>(max_slices));
  for (auto& g : slice_grads) g.bind(model);
  std::vector<float> slice_loss(static_cast<std::size_t>(max_slices), 0.0F);
  std::vector<double> slice_metric(static_cast<std::size_t>(max_slices), 0.0);
  GradientBuffer total;
  total.bind(model);

  std::vector<std::size_t> order(item_count);
  std::iota(order.begin(), order.end(), 0);

  common::WorkerPool pool(threads - 1);

  for (std::int32_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    float epoch_loss = 0.0F;
    double epoch_metric = 0.0;

    for (std::size_t base = 0; base < order.size(); base += static_cast<std::size_t>(kBatchSize)) {
      const auto mini = static_cast<std::int32_t>(
          std::min<std::size_t>(static_cast<std::size_t>(kBatchSize), order.size() - base));
      const std::int32_t slices = (mini + kGradSliceSamples - 1) / kGradSliceSamples;

      // Slices go out through a per-minibatch cursor; a slice writes only
      // its own gradient buffer and loss/metric slots, so which participant
      // computes it never shows in the result.
      std::atomic<std::int32_t> cursor{0};
      pool.run([&](std::int32_t worker) {
        InferenceContext& ctx = contexts[static_cast<std::size_t>(worker)];
        for (std::int32_t t = cursor.fetch_add(1, std::memory_order_relaxed); t < slices;
             t = cursor.fetch_add(1, std::memory_order_relaxed)) {
          ctx.bind_train(model, input_shape, kGradSliceSamples);
          // Past the (idempotent) binding, the whole slice — staging,
          // batched forward, loss kernels, batched backward — runs in
          // this worker's arena and the preallocated slice gradient
          // buffers: zero allocations, checked in Debug builds.
          const dbg::NoAllocScope no_alloc("nn::train slice compute");
          const std::int32_t lo = t * kGradSliceSamples;
          const std::int32_t n = std::min(kGradSliceSamples, mini - lo);
          Tensor4& in = ctx.input(n);
          for (std::int32_t j = 0; j < n; ++j) {
            stage(order[base + static_cast<std::size_t>(lo + j)], in, j);
          }
          const Tensor4& out = model.infer_batch(ctx);
          Tensor4& lg = ctx.loss_grad();
          float lsum = 0.0F;
          double msum = 0.0;
          for (std::int32_t j = 0; j < n; ++j) {
            const ItemLoss r = loss(order[base + static_cast<std::size_t>(lo + j)],
                                    out.sample(j), out.sample_size(), lg.sample(j));
            lsum += r.loss;
            msum += r.metric;
          }
          auto& grads = slice_grads[static_cast<std::size_t>(t)];
          grads.zero();
          model.backward_batch(ctx, grads);
          slice_loss[static_cast<std::size_t>(t)] = lsum;
          slice_metric[static_cast<std::size_t>(t)] = msum;
        }
      });

      // Fixed-order reduction: slice gradients summed ascending, then one
      // optimizer step — identical bytes at any thread count.
      total.zero();
      for (std::int32_t t = 0; t < slices; ++t) {
        total.add(slice_grads[static_cast<std::size_t>(t)]);
        epoch_loss += slice_loss[static_cast<std::size_t>(t)];
        epoch_metric += slice_metric[static_cast<std::size_t>(t)];
      }
      total.store(model);
      optimizer.step();
    }

    report.final_loss = epoch_loss / static_cast<float>(order.size());
    report.final_metric = epoch_metric / static_cast<double>(order.size());
    ++report.epochs_run;
  }
  return report;
}

}  // namespace dl2f::nn
