// The one trainer of every CNN here: nn::train seeds an Rng from the
// config, initializes the model's weights, builds the Adam step and runs
// batched, deterministic minibatch SGD. core::train_detector,
// core::train_localizer and temporal::train_temporal_detector supply only
// how an item is staged and what its loss is.
//
// Each epoch shuffles the item order, packs every minibatch into
// nn::Tensor4 batches, runs the GEMM-lowered infer_batch/backward_batch
// through per-worker InferenceContext arenas, and steps the optimizer
// once per minibatch. The workers are the participants of one
// common::WorkerPool (the caller plus threads - 1 pool threads); they
// take a minibatch's slices from an atomic cursor, one pool run per
// minibatch.
//
// Determinism contract (the same guarantee runtime::run_campaign makes):
// trained weights are BYTE-IDENTICAL for a given seed at any thread
// count. The mechanism is a fixed-order reduction over fixed-size
// gradient slices: every minibatch is always cut into
// ceil(batch / kGradSliceSamples) slices regardless of the worker count,
// each slice's parameter gradients accumulate independently (samples
// ascending, bitwise equal to the per-sample Sequential::backward the
// tests compare against), and the slice buffers are summed in ascending
// slice index before the optimizer step. Threads only change which
// worker computes a slice, never what is computed or in which order it
// is reduced.
#pragma once

#include <cstdint>
#include <functional>

#include "nn/model.hpp"
#include "nn/tensor.hpp"

namespace dl2f::nn {

/// Minibatch size of every trainer: one Adam step per kBatchSize items.
inline constexpr std::int32_t kBatchSize = 8;

/// Fixed gradient-slice width in samples — the determinism unit of the
/// data-parallel reduction (see the header comment). A minibatch of
/// kBatchSize yields 4 slices, so up to 4 workers see work.
inline constexpr std::int32_t kGradSliceSamples = 2;

struct TrainConfig {
  std::int32_t epochs = 1;
  /// Seeds the weight initialization and the per-epoch shuffle.
  std::uint64_t seed = 0;
  /// Worker count, the caller included; clamped to [1, 16] (1 = fully
  /// inline). Trained weights never depend on it.
  std::int32_t threads = 1;
};

struct TrainReport {
  float final_loss = 0.0F;     ///< mean loss over the last epoch's items
  double final_metric = 0.0;   ///< mean ItemLoss::metric over the last epoch
  std::int32_t epochs_run = 0;
};

/// Per-item loss-stage result: the scalar loss and an optional secondary
/// metric (the localizer's dice score; 0 when unused).
struct ItemLoss {
  float loss = 0.0F;
  double metric = 0.0;
};

/// Stage item `item` into slot `slot` of the input batch (allocation-free;
/// called concurrently from workers — must only read shared state).
using StageFn = std::function<void(std::size_t item, Tensor4& input, std::int32_t slot)>;

/// Read the `n` prediction floats of `item`, write dLoss/dPred into
/// `grad` (fully; it is not pre-zeroed). Called concurrently from workers.
using LossFn =
    std::function<ItemLoss(std::size_t item, const float* pred, std::size_t n, float* grad)>;

/// Initialize `model` from cfg.seed and train it with Adam at
/// `learning_rate` for cfg.epochs of sliced minibatch SGD over items
/// [0, item_count), each staged by `stage` into an `input_shape` sample.
TrainReport train(Sequential& model, const Tensor3& input_shape, float learning_rate,
                  std::size_t item_count, const StageFn& stage, const LossFn& loss,
                  const TrainConfig& cfg);

}  // namespace dl2f::nn
