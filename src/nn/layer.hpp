// Layer interface.
//
// Per-sample path (the parity oracle): forward caches whatever backward
// needs; backward accumulates parameter gradients into Param::grad and
// returns the gradient w.r.t. the layer input. One sample at a time,
// allocating. No library path scores or trains through it: it is the
// bitwise ground truth the tests hold the batched paths against
// (batch_train_test, gradcheck_test, the pipeline and temporal parity
// tests) and bench_inference's parity gate.
//
// Batched paths (const, allocation-free, the only compute the library
// runs):
//  * infer_batch reads a preallocated input batch and writes a
//    preallocated output batch; per-sample temporaries (zero-bordered
//    planes, packing panels) live in caller-provided scratch, never in
//    layer members. It is both the inference pass and the batched
//    training forward. Per sample it performs the exact floating-point
//    operations of forward() in the exact same order, plus +/-0 border
//    terms (convolutions and dense layers are lowered onto the
//    nn/gemm.hpp kernels, whose accumulation-order invariants guarantee
//    this), so batched outputs are bitwise-identical to forward().
//  * backward_batch consumes the batch the caller forwarded (input and
//    output activations are handed back in) and accumulates parameter
//    gradients into caller-owned buffers, samples in ascending order —
//    bitwise-identical to running backward() over the batch sequentially.
//    Layer members are never touched, so one layer (one weight set) can
//    serve any number of concurrent training workers, each with its own
//    activations/gradient buffers (nn/train.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/tensor.hpp"

namespace dl2f::nn {

/// A learnable parameter block (weights or biases) with its gradient.
struct Param {
  std::vector<float> value;
  std::vector<float> grad;

  explicit Param(std::size_t n = 0) : value(n, 0.0F), grad(n, 0.0F) {}
  [[nodiscard]] std::size_t size() const noexcept { return value.size(); }
  void zero_grad() { std::fill(grad.begin(), grad.end(), 0.0F); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  virtual Tensor3 forward(const Tensor3& input) = 0;
  virtual Tensor3 backward(const Tensor3& grad_output) = 0;

  /// Const, allocation-free batched inference. `in` holds N samples of
  /// this layer's input shape; `out` is already sized to N samples of
  /// output_shape(in). `scratch` points at infer_scratch_floats(...)
  /// floats, reused sample by sample. Must not touch any member state.
  virtual void infer_batch(const Tensor4& in, Tensor4& out, float* scratch) const = 0;

  /// Const, allocation-free batched backward. `grad_out` is dLoss/d(out);
  /// `in`/`out` are the activations infer_batch consumed and produced
  /// for this batch. Writes dLoss/d(in) into `grad_in` (fully overwritten;
  /// skipped entirely when `need_input_grad` is false — e.g. for the first
  /// layer of a model) and ACCUMULATES parameter gradients into
  /// `param_grads`, one float buffer per params() entry, in params()
  /// order. `scratch` points at infer_scratch_floats(...) floats: one
  /// arena serves the whole forward+backward pass.
  /// Bitwise-identical to running backward() per sample in batch order.
  virtual void backward_batch(const Tensor4& grad_out, const Tensor4& in, const Tensor4& out,
                              Tensor4& grad_in, std::span<float* const> param_grads,
                              float* scratch, bool need_input_grad) const = 0;

  /// Per-sample scratch floats infer_batch and backward_batch need for
  /// the given input shape (0 for layers that stream input to output
  /// directly).
  [[nodiscard]] virtual std::size_t infer_scratch_floats(const Tensor3& /*input_shape*/) const {
    return 0;
  }

  /// Learnable parameter blocks (empty for activations/pooling).
  [[nodiscard]] virtual std::vector<Param*> params() { return {}; }

  /// params().size() without materializing the vector — backward_batch
  /// runs under a NoAllocScope, so it must size its per-layer gradient
  /// views allocation-free. Overrides must match params() exactly.
  [[nodiscard]] virtual std::size_t num_params() const { return 0; }

  /// Randomize parameters (no-op for parameterless layers).
  virtual void init_weights(Rng& /*rng*/) {}

  /// Output shape for a given input shape, without running data through.
  [[nodiscard]] virtual Tensor3 output_shape(const Tensor3& input_shape) const = 0;
};

}  // namespace dl2f::nn
