// The inference/training arena: every buffer the const compute paths touch.
//
// An InferenceContext is bound once to a (model, input shape, batch
// capacity) triple; bind() preallocates one NCHW activation buffer per
// layer boundary plus the worst-case per-sample layer scratch (which now
// includes the im2col/im2row packing panels the GEMM-lowered layers use).
// After that, scoring any batch up to the capacity performs zero heap
// allocations: callers stage samples into input(), run
// Sequential::infer_batch, and read the returned activations. Rebinding
// to a different model/shape or a larger batch reallocates;
// same-or-smaller requests are no-ops.
//
// bind_train() additionally allocates a mirror gradient buffer per layer
// boundary, turning the context into a complete per-worker training
// arena: Sequential::infer_batch fills the activations, the caller writes
// dLoss/dOut into loss_grad(), and
// Sequential::backward_batch drains the gradients — all allocation-free.
//
// The context is the mutable half of the const-shared/mutable-scratch
// split: one immutable Sequential (weights) can be shared by any number
// of threads, each owning its own InferenceContext. The cross-thread
// false-sharing story rests on construction affinity, not alignment
// tricks: construct and bind a context ON the thread that uses it, and
// per-thread malloc arenas place that worker's buffers on disjoint pages
// from every other worker's. (The layer scratch is also rounded up to a
// whole number of cache lines as cheap hygiene, but no 64-byte base
// alignment is guaranteed for the vectors themselves.)
#pragma once

#include <cstddef>
#include <vector>

#include "nn/tensor.hpp"

namespace dl2f::nn {

class Sequential;

class InferenceContext {
 public:
  InferenceContext() = default;

  /// Preallocate activations and scratch for up to `max_batch` samples of
  /// `input_shape` through `model`. Idempotent for an equal-or-smaller
  /// binding; reallocates otherwise. `model` is borrowed and must outlive
  /// the context (or be re-bound).
  void bind(const Sequential& model, const Tensor3& input_shape, std::int32_t max_batch);

  /// bind() plus the per-layer gradient mirrors the batched backward pass
  /// needs. Idempotent like bind().
  void bind_train(const Sequential& model, const Tensor3& input_shape, std::int32_t max_batch);

  [[nodiscard]] bool bound() const noexcept { return model_ != nullptr; }
  [[nodiscard]] bool train_bound() const noexcept { return bound() && !grads_.empty(); }
  [[nodiscard]] const Sequential* model() const noexcept { return model_; }

  /// The input staging buffer, with its active batch set to `n`.
  /// Allocation-free; `n` must not exceed the bound `max_batch` — batch
  /// callers chunk instead of growing the binding.
  [[nodiscard]] Tensor4& input(std::int32_t n);

  /// The loss-gradient staging buffer (dLoss/dOut of the model), sized to
  /// the active batch of the last infer_batch. Requires bind_train.
  [[nodiscard]] Tensor4& loss_grad();

 private:
  friend class Sequential;

  const Sequential* model_ = nullptr;
  std::int32_t capacity_ = 0;
  bool train_ = false;
  std::int32_t input_c_ = 0, input_h_ = 0, input_w_ = 0;
  std::vector<Tensor4> acts_;   ///< [0] input, [i+1] output of layer i
  std::vector<Tensor4> grads_;  ///< gradient mirror of acts_ (train binding only)
  common::aligned_vector<float> scratch_;
};

}  // namespace dl2f::nn
