#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dl2f::nn {

namespace {

/// He-uniform initialization: U(-b, b) with b = sqrt(6 / fan_in); suits the
/// ReLU-activated convolutions and keeps the tiny models' activations in a
/// trainable range from the first epoch.
void he_uniform(std::vector<float>& w, std::size_t fan_in, Rng& rng) {
  const double bound = std::sqrt(6.0 / static_cast<double>(std::max<std::size_t>(fan_in, 1)));
  for (float& v : w) v = static_cast<float>(rng.uniform(-bound, bound));
}

}  // namespace

// ---------------------------------------------------------------- Conv2D

Conv2D::Conv2D(std::int32_t in_channels, std::int32_t out_channels, std::int32_t kernel,
               Padding padding, std::int32_t steps)
    : in_c_(in_channels), out_c_(out_channels), k_(kernel),
      pad_(padding == Padding::Same ? (kernel - 1) / 2 : 0), steps_(steps),
      weights_(static_cast<std::size_t>(out_channels * in_channels * kernel * kernel)),
      bias_(static_cast<std::size_t>(out_channels)) {
  assert(steps >= 1 && kernel >= 1 && (padding != Padding::Same || kernel % 2 == 1));
}

Tensor3 Conv2D::output_shape(const Tensor3& s) const {
  const auto oh = s.height() + 2 * pad_ - k_ + 1;
  const auto ow = s.width() + 2 * pad_ - k_ + 1;
  return Tensor3(steps_ * out_c_, oh, ow);
}

void Conv2D::init_weights(Rng& rng) {
  // Fan-in is one step's receptive field: the bank is shared across steps.
  he_uniform(weights_.value, static_cast<std::size_t>(in_c_ * k_ * k_), rng);
  std::fill(bias_.value.begin(), bias_.value.end(), 0.0F);
}

Tensor3 Conv2D::forward(const Tensor3& input) {
  assert(input.channels() == steps_ * in_c_);
  cached_input_ = input;
  Tensor3 out = output_shape(input);
  for (std::int32_t t = 0; t < steps_; ++t) {
    for (std::int32_t o = 0; o < out_c_; ++o) {
      for (std::int32_t y = 0; y < out.height(); ++y) {
        for (std::int32_t x = 0; x < out.width(); ++x) {
          float acc = bias_.value[static_cast<std::size_t>(o)];
          for (std::int32_t i = 0; i < in_c_; ++i) {
            for (std::int32_t dy = 0; dy < k_; ++dy) {
              const std::int32_t iy = y + dy - pad_;
              if (iy < 0 || iy >= input.height()) continue;
              for (std::int32_t dx = 0; dx < k_; ++dx) {
                const std::int32_t ix = x + dx - pad_;
                if (ix < 0 || ix >= input.width()) continue;
                acc += w(o, i, dy, dx) * input.at(t * in_c_ + i, iy, ix);
              }
            }
          }
          out.at(t * out_c_ + o, y, x) = acc;
        }
      }
    }
  }
  return out;
}

Tensor3 Conv2D::backward(const Tensor3& grad_out) {
  const Tensor3& in = cached_input_;
  Tensor3 grad_in(in.channels(), in.height(), in.width());
  // Steps ascending, then the (o, y, x) sweep: the shared bank accumulates
  // its gradient in this fixed order, which backward_batch reproduces.
  for (std::int32_t t = 0; t < steps_; ++t) {
    for (std::int32_t o = 0; o < out_c_; ++o) {
      for (std::int32_t y = 0; y < grad_out.height(); ++y) {
        for (std::int32_t x = 0; x < grad_out.width(); ++x) {
          const float g = grad_out.at(t * out_c_ + o, y, x);
          if (g == 0.0F) continue;
          bias_.grad[static_cast<std::size_t>(o)] += g;
          for (std::int32_t i = 0; i < in_c_; ++i) {
            for (std::int32_t dy = 0; dy < k_; ++dy) {
              const std::int32_t iy = y + dy - pad_;
              if (iy < 0 || iy >= in.height()) continue;
              for (std::int32_t dx = 0; dx < k_; ++dx) {
                const std::int32_t ix = x + dx - pad_;
                if (ix < 0 || ix >= in.width()) continue;
                gw(o, i, dy, dx) += g * in.at(t * in_c_ + i, iy, ix);
                grad_in.at(t * in_c_ + i, iy, ix) += g * w(o, i, dy, dx);
              }
            }
          }
        }
      }
    }
  }
  return grad_in;
}

std::size_t Conv2D::infer_scratch_floats(const Tensor3& input_shape) const {
  // One step's im2col panel: (in_c * k * k) rows by (oh * ow) output
  // pixels, reused across (sample, step) groups. The backward im2row panel
  // is the transpose, so the same arena serves both.
  const Tensor3 out = output_shape(input_shape);
  return static_cast<std::size_t>(in_c_ * k_ * k_) *
         static_cast<std::size_t>(out.height() * out.width());
}

// ------------------------------------------------------------- MaxPool2D

Tensor3 MaxPool2D::output_shape(const Tensor3& s) const {
  return Tensor3(s.channels(), s.height() / pool_, s.width() / pool_);
}

Tensor3 MaxPool2D::forward(const Tensor3& input) {
  cached_input_shape_ = Tensor3(input.channels(), input.height(), input.width());
  Tensor3 out = output_shape(input);
  argmax_.assign(out.size(), -1);
  std::size_t idx = 0;
  for (std::int32_t c = 0; c < out.channels(); ++c) {
    for (std::int32_t y = 0; y < out.height(); ++y) {
      for (std::int32_t x = 0; x < out.width(); ++x, ++idx) {
        float best = -std::numeric_limits<float>::infinity();
        std::int32_t best_flat = -1;
        for (std::int32_t dy = 0; dy < pool_; ++dy) {
          for (std::int32_t dx = 0; dx < pool_; ++dx) {
            const std::int32_t iy = y * pool_ + dy;
            const std::int32_t ix = x * pool_ + dx;
            const float v = input.at(c, iy, ix);
            if (v > best) {
              best = v;
              best_flat = (c * input.height() + iy) * input.width() + ix;
            }
          }
        }
        out.at(c, y, x) = best;
        argmax_[idx] = best_flat;
      }
    }
  }
  return out;
}

Tensor3 MaxPool2D::backward(const Tensor3& grad_out) {
  Tensor3 grad_in(cached_input_shape_.channels(), cached_input_shape_.height(),
                  cached_input_shape_.width());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    // argmax is -1 only for an all-NaN window (diverged training): no
    // input element was selected, so its gradient is dropped, as in
    // backward_batch.
    if (argmax_[i] < 0) continue;
    grad_in.data()[static_cast<std::size_t>(argmax_[i])] += grad_out.data()[i];
  }
  return grad_in;
}

// ------------------------------------------------------------------ ReLU

Tensor3 ReLU::forward(const Tensor3& input) {
  cached_input_ = input;
  Tensor3 out = input;
  for (float& v : out.data()) v = std::max(v, 0.0F);
  return out;
}

Tensor3 ReLU::backward(const Tensor3& grad_out) {
  Tensor3 grad_in = grad_out;
  for (std::size_t i = 0; i < grad_in.size(); ++i) {
    if (cached_input_.data()[i] <= 0.0F) grad_in.data()[i] = 0.0F;
  }
  return grad_in;
}

// --------------------------------------------------------------- Sigmoid

Tensor3 Sigmoid::forward(const Tensor3& input) {
  Tensor3 out = input;
  for (float& v : out.data()) v = 1.0F / (1.0F + std::exp(-v));
  cached_output_ = out;
  return out;
}

Tensor3 Sigmoid::backward(const Tensor3& grad_out) {
  Tensor3 grad_in = grad_out;
  for (std::size_t i = 0; i < grad_in.size(); ++i) {
    const float s = cached_output_.data()[i];
    grad_in.data()[i] *= s * (1.0F - s);
  }
  return grad_in;
}

// --------------------------------------------------------------- Flatten

Tensor3 Flatten::forward(const Tensor3& input) {
  c_ = input.channels();
  h_ = input.height();
  w_ = input.width();
  Tensor3 out(c_ * h_ * w_, 1, 1);
  out.data() = input.data();
  return out;
}

Tensor3 Flatten::backward(const Tensor3& grad_out) {
  Tensor3 grad_in(c_, h_, w_);
  grad_in.data() = grad_out.data();
  return grad_in;
}

// ----------------------------------------------------------------- Dense

Dense::Dense(std::int32_t in_features, std::int32_t out_features, std::int32_t steps,
             std::int32_t window)
    : in_f_(in_features), out_f_(out_features), steps_(steps), window_(window),
      weights_(static_cast<std::size_t>(out_features * window * in_features)),
      bias_(static_cast<std::size_t>(out_features)) {
  assert(window >= 1 && steps >= window);
}

Tensor3 Dense::output_shape(const Tensor3&) const { return Tensor3(positions() * out_f_, 1, 1); }

void Dense::init_weights(Rng& rng) {
  he_uniform(weights_.value, static_cast<std::size_t>(window_ * in_f_), rng);
  std::fill(bias_.value.begin(), bias_.value.end(), 0.0F);
}

Tensor3 Dense::forward(const Tensor3& input) {
  assert(static_cast<std::int32_t>(input.size()) == steps_ * in_f_);
  cached_input_ = input;
  const std::int32_t kd = window_ * in_f_;
  Tensor3 out = output_shape(input);
  for (std::int32_t u = 0; u < positions(); ++u) {
    const float* x = input.data().data() + static_cast<std::size_t>(u * in_f_);
    for (std::int32_t o = 0; o < out_f_; ++o) {
      float acc = bias_.value[static_cast<std::size_t>(o)];
      const auto row = static_cast<std::size_t>(o * kd);
      for (std::int32_t q = 0; q < kd; ++q) {
        acc += weights_.value[row + static_cast<std::size_t>(q)] * x[q];
      }
      out.data()[static_cast<std::size_t>(u * out_f_ + o)] = acc;
    }
  }
  return out;
}

Tensor3 Dense::backward(const Tensor3& grad_out) {
  const std::int32_t kd = window_ * in_f_;
  Tensor3 grad_in(cached_input_.channels(), cached_input_.height(), cached_input_.width());
  for (std::int32_t u = 0; u < positions(); ++u) {
    const float* x = cached_input_.data().data() + static_cast<std::size_t>(u * in_f_);
    float* gi = grad_in.data().data() + static_cast<std::size_t>(u * in_f_);
    for (std::int32_t o = 0; o < out_f_; ++o) {
      const float g = grad_out.data()[static_cast<std::size_t>(u * out_f_ + o)];
      bias_.grad[static_cast<std::size_t>(o)] += g;
      const auto row = static_cast<std::size_t>(o * kd);
      for (std::int32_t q = 0; q < kd; ++q) {
        weights_.grad[row + static_cast<std::size_t>(q)] += g * x[q];
        gi[q] += g * weights_.value[row + static_cast<std::size_t>(q)];
      }
    }
  }
  return grad_in;
}

std::size_t Dense::infer_scratch_floats(const Tensor3& /*input_shape*/) const {
  // One transposed column panel ((window * in_f) x kSampleBlock) plus the
  // GEMM output panel (out_f x kSampleBlock).
  return static_cast<std::size_t>(window_ * in_f_ + out_f_) *
         static_cast<std::size_t>(gemm::kSampleBlock);
}

}  // namespace dl2f::nn
