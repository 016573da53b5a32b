// Sequential model container with binary weight (de)serialization.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace dl2f::nn {

class InferenceContext;
class Sequential;

/// Caller-owned parameter-gradient storage, one float block per
/// Sequential::params() entry. The unit of the deterministic data-parallel
/// reduction: each training slice accumulates into its own buffer and the
/// trainer adds buffers in fixed slice order (nn/train.hpp), so trained
/// weights never depend on the worker count.
struct GradientBuffer {
  std::vector<std::vector<float>> blocks;

  /// Size the blocks to `model`'s parameter layout (zero-filled).
  void bind(const Sequential& model);
  void zero();
  /// Element-wise `this += other` (same layout required).
  void add(const GradientBuffer& other);
  /// Copy the blocks into the model's Param::grad slots (overwrites).
  void store(Sequential& model) const;
};

class Sequential {
 public:
  Sequential() = default;

  /// Append a layer; returns *this for chaining.
  Sequential& add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// Per-sample forward, the parity oracle of infer_batch (the tests and
  /// bench_inference's parity gate): each layer caches what backward
  /// needs; allocates per layer. Scoring and training run infer_batch.
  Tensor3 forward(const Tensor3& input);
  /// Per-sample backprop from the loss gradient at the output, the parity
  /// oracle of backward_batch; accumulates parameter gradients in every
  /// layer.
  // lint-allow(DL008): test oracle — batch_train_test and gradcheck_test hold backward_batch to it
  Tensor3 backward(const Tensor3& grad_output);

  /// Const, allocation-free batched inference through a context bound to
  /// this model: stage samples via ctx.input(n), then call; returns the
  /// last layer's activations (valid until the context is next used).
  /// Bitwise-identical per sample to forward(). It is also the batched
  /// training forward: every layer activation stays in the context for
  /// backward_batch.
  const Tensor4& infer_batch(InferenceContext& ctx) const;

  /// Const, allocation-free batched backprop. Expects infer_batch to have
  /// just run on a bind_train'd `ctx` and ctx.loss_grad() to hold
  /// dLoss/dOut for the active batch. Accumulates parameter gradients
  /// into `grads` (bound to this model), samples in ascending order —
  /// bitwise-identical to running backward() per sample sequentially.
  /// The first layer's input gradient is not computed (no consumer).
  /// Layer members are never touched, so any number of workers may run
  /// this concurrently against one shared model, each with its own
  /// context and gradient buffer.
  void backward_batch(InferenceContext& ctx, GradientBuffer& grads) const;

  void init_weights(Rng& rng);
  [[nodiscard]] std::vector<Param*> params();
  [[nodiscard]] std::vector<const Param*> params() const;
  [[nodiscard]] std::size_t param_count() const;

  /// Weight serialization: little-endian stream of all parameter blocks in
  /// layer order, preceded by a magic/count header. The architecture
  /// itself is code, not data — loading into a mismatched architecture is
  /// rejected via the scalar-count check. load() returns false and leaves
  /// every parameter unchanged unless the whole stream is exactly one blob
  /// for this architecture (no truncated block, no trailing bytes).
  bool save(std::ostream& os) const;
  bool load(std::istream& is);
  bool save_file(const std::string& path) const;
  bool load_file(const std::string& path);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace dl2f::nn
