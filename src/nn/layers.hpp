// The concrete layers DL2Fence's two models are built from (Fig. 2); the
// temporal head reuses Conv2D and Dense with their `steps` arguments.
//
// All convolutions are stride-1; Padding::Valid shrinks by k-1 per side
// pair (the detector), Padding::Same preserves H x W (the localizer).
#pragma once

#include "nn/gemm.hpp"
#include "nn/layer.hpp"

namespace dl2f::nn {

enum class Padding : std::uint8_t { Valid, Same };

/// With steps > 1 the one filter bank is applied independently to each of
/// `steps` channel groups: input (steps*in_c, H, W) -> output
/// (steps*out_c, OH, OW), group t of the input mapping to group t of the
/// output. The temporal detector embeds every window of a sequence this
/// way. Steps ascend inside each sample on every path, so each (sample,
/// step) group runs exactly the steps = 1 computation.
class Conv2D final : public Layer {
 public:
  Conv2D(std::int32_t in_channels, std::int32_t out_channels, std::int32_t kernel,
         Padding padding, std::int32_t steps = 1);

  [[nodiscard]] std::string name() const override { return "Conv2D"; }
  Tensor3 forward(const Tensor3& input) override;
  Tensor3 backward(const Tensor3& grad_output) override;
  void infer_batch(const Tensor4& in, Tensor4& out, float* scratch) const override;
  void backward_batch(const Tensor4& grad_out, const Tensor4& in, const Tensor4& out,
                      Tensor4& grad_in, std::span<float* const> param_grads, float* scratch,
                      bool need_input_grad) const override;
  [[nodiscard]] std::size_t infer_scratch_floats(const Tensor3& input_shape) const override;
  [[nodiscard]] std::vector<Param*> params() override { return {&weights_, &bias_}; }
  [[nodiscard]] std::size_t num_params() const override { return 2; }
  void init_weights(Rng& rng) override;
  [[nodiscard]] Tensor3 output_shape(const Tensor3& input_shape) const override;

  [[nodiscard]] std::int32_t kernel() const noexcept { return k_; }
  /// Input channels of one step's group.
  [[nodiscard]] std::int32_t in_channels() const noexcept { return in_c_; }

 private:
  [[nodiscard]] float& w(std::int32_t o, std::int32_t i, std::int32_t dy, std::int32_t dx) {
    return weights_.value[static_cast<std::size_t>(((o * in_c_ + i) * k_ + dy) * k_ + dx)];
  }
  [[nodiscard]] float& gw(std::int32_t o, std::int32_t i, std::int32_t dy, std::int32_t dx) {
    return weights_.grad[static_cast<std::size_t>(((o * in_c_ + i) * k_ + dy) * k_ + dx)];
  }

  std::int32_t in_c_, out_c_, k_;
  std::int32_t pad_;  ///< zero-padding per side (0 for Valid, (k-1)/2 for Same)
  std::int32_t steps_;
  Param weights_;  ///< out_c x in_c x k x k, shared across steps
  Param bias_;
  Tensor3 cached_input_;
};

class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(std::int32_t pool) : pool_(pool) { assert(pool >= 1); }

  [[nodiscard]] std::string name() const override { return "MaxPool2D"; }
  Tensor3 forward(const Tensor3& input) override;
  Tensor3 backward(const Tensor3& grad_output) override;
  void infer_batch(const Tensor4& in, Tensor4& out, float* scratch) const override;
  void backward_batch(const Tensor4& grad_out, const Tensor4& in, const Tensor4& out,
                      Tensor4& grad_in, std::span<float* const> param_grads, float* scratch,
                      bool need_input_grad) const override;
  [[nodiscard]] Tensor3 output_shape(const Tensor3& input_shape) const override;

 private:
  std::int32_t pool_;
  Tensor3 cached_input_shape_;
  std::vector<std::int32_t> argmax_;  ///< flat input index of each output max
};

class ReLU final : public Layer {
 public:
  [[nodiscard]] std::string name() const override { return "ReLU"; }
  Tensor3 forward(const Tensor3& input) override;
  Tensor3 backward(const Tensor3& grad_output) override;
  void infer_batch(const Tensor4& in, Tensor4& out, float* scratch) const override;
  void backward_batch(const Tensor4& grad_out, const Tensor4& in, const Tensor4& out,
                      Tensor4& grad_in, std::span<float* const> param_grads, float* scratch,
                      bool need_input_grad) const override;
  [[nodiscard]] Tensor3 output_shape(const Tensor3& s) const override { return s; }

 private:
  Tensor3 cached_input_;
};

class Sigmoid final : public Layer {
 public:
  [[nodiscard]] std::string name() const override { return "Sigmoid"; }
  Tensor3 forward(const Tensor3& input) override;
  Tensor3 backward(const Tensor3& grad_output) override;
  void infer_batch(const Tensor4& in, Tensor4& out, float* scratch) const override;
  void backward_batch(const Tensor4& grad_out, const Tensor4& in, const Tensor4& out,
                      Tensor4& grad_in, std::span<float* const> param_grads, float* scratch,
                      bool need_input_grad) const override;
  [[nodiscard]] Tensor3 output_shape(const Tensor3& s) const override { return s; }

 private:
  Tensor3 cached_output_;
};

class Flatten final : public Layer {
 public:
  [[nodiscard]] std::string name() const override { return "Flatten"; }
  Tensor3 forward(const Tensor3& input) override;
  Tensor3 backward(const Tensor3& grad_output) override;
  void infer_batch(const Tensor4& in, Tensor4& out, float* scratch) const override;
  void backward_batch(const Tensor4& grad_out, const Tensor4& in, const Tensor4& out,
                      Tensor4& grad_in, std::span<float* const> param_grads, float* scratch,
                      bool need_input_grad) const override;
  [[nodiscard]] Tensor3 output_shape(const Tensor3& s) const override {
    return Tensor3(s.channels() * s.height() * s.width(), 1, 1);
  }

 private:
  std::int32_t c_ = 0, h_ = 0, w_ = 0;
};

/// With steps > 1 the input is `steps` contiguous in_f-float blocks (time
/// major) and the layer slides over them: output position u, of
/// steps - window + 1, is the bias plus one dot product over blocks
/// [u, u + window), the reduction index ascending. Weights are then
/// out_f x (window * in_f). This is the temporal detector's convolution
/// over time; with steps = window = 1 it is the plain dense layer.
class Dense final : public Layer {
 public:
  Dense(std::int32_t in_features, std::int32_t out_features, std::int32_t steps = 1,
        std::int32_t window = 1);

  [[nodiscard]] std::string name() const override { return "Dense"; }
  Tensor3 forward(const Tensor3& input) override;
  Tensor3 backward(const Tensor3& grad_output) override;
  void infer_batch(const Tensor4& in, Tensor4& out, float* scratch) const override;
  void backward_batch(const Tensor4& grad_out, const Tensor4& in, const Tensor4& out,
                      Tensor4& grad_in, std::span<float* const> param_grads, float* scratch,
                      bool need_input_grad) const override;
  [[nodiscard]] std::size_t infer_scratch_floats(const Tensor3& input_shape) const override;
  [[nodiscard]] std::vector<Param*> params() override { return {&weights_, &bias_}; }
  [[nodiscard]] std::size_t num_params() const override { return 2; }
  void init_weights(Rng& rng) override;
  [[nodiscard]] Tensor3 output_shape(const Tensor3& input_shape) const override;

  [[nodiscard]] std::int32_t in_features() const noexcept { return in_f_; }
  [[nodiscard]] std::int32_t out_features() const noexcept { return out_f_; }

 private:
  /// Output positions (steps - window + 1).
  [[nodiscard]] std::int32_t positions() const noexcept { return steps_ - window_ + 1; }

  std::int32_t in_f_, out_f_, steps_, window_;
  Param weights_;  ///< out_f x (window * in_f), row-major
  Param bias_;
  Tensor3 cached_input_;
};

}  // namespace dl2f::nn
