// Batched, deterministic minibatch SGD: the shared training engine behind
// core::train_detector and core::train_localizer.
//
// Each epoch shuffles the item order (same RNG consumption as the legacy
// per-sample trainer), packs every minibatch into nn::Tensor4 batches,
// runs the GEMM-lowered infer_batch/backward_batch through per-worker
// InferenceContext arenas, and steps the optimizer once per minibatch.
// The workers are the participants of one common::WorkerPool (the caller
// plus threads - 1 pool threads); they take a minibatch's slices from an
// atomic cursor, one pool run per minibatch.
//
// Determinism contract (the same guarantee runtime::run_campaign makes):
// trained weights are BYTE-IDENTICAL for a given seed at any thread
// count. The mechanism is a fixed-order reduction over fixed-size
// gradient slices: every minibatch is always cut into
// ceil(batch / kGradSliceSamples) slices regardless of the worker count,
// each slice's parameter gradients accumulate independently (samples
// ascending, bitwise equal to the per-sample reference backward), and the
// slice buffers are summed in ascending slice index before the optimizer
// step. Threads only change which worker computes a slice, never what is
// computed or in which order it is reduced.
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "nn/inference.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"

namespace dl2f::nn {

/// Fixed gradient-slice width in samples — the determinism unit of the
/// data-parallel reduction (see the header comment). With the default
/// minibatch of 8 this yields 4 slices, so up to 4 workers see work.
inline constexpr std::int32_t kGradSliceSamples = 2;

struct BatchTrainConfig {
  std::int32_t epochs = 1;
  std::int32_t batch_size = 8;
  /// Worker count, the caller included; clamped to [1, 16] (1 = fully
  /// inline). Results never depend on it.
  std::int32_t threads = 1;
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

/// End-of-epoch hook (main thread): epoch index, mean loss, mean metric.
using EpochFn = std::function<void(std::int32_t epoch, float mean_loss, double mean_metric)>;

/// Run cfg.epochs of sliced minibatch SGD over items [0, item_count).
/// `rng` drives the per-epoch shuffle only (weight init is the caller's).
/// `optimizer` must be bound to `model`'s params.
void batch_train(Sequential& model, Adam& optimizer, const Tensor3& input_shape,
                 std::size_t item_count, const StageFn& stage, const LossFn& loss,
                 const BatchTrainConfig& cfg, Rng& rng, const EpochFn& on_epoch = {});

}  // namespace dl2f::nn
