#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace dl2f::nn {

float bce_loss_into(const float* prediction, const float* target, std::size_t n,
                    float weight, float* grad) {
  constexpr float kEps = 1e-7F;
  float loss = 0.0F;
  const auto fn = static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float p = std::clamp(prediction[i], kEps, 1.0F - kEps);
    const float t = target[i];
    const float w = t > 0.5F ? weight : 1.0F;
    loss += -w * (t * std::log(p) + (1.0F - t) * std::log(1.0F - p));
    grad[i] = w * (p - t) / (p * (1.0F - p)) / fn;
  }
  return loss / fn;
}

float dice_loss_add(const float* prediction, const float* target, std::size_t n, float* grad) {
  constexpr float kEps = 1.0F;  // Laplace smoothing keeps empty masks stable
  float inter = 0.0F, psum = 0.0F, tsum = 0.0F;
  for (std::size_t i = 0; i < n; ++i) {
    inter += prediction[i] * target[i];
    psum += prediction[i];
    tsum += target[i];
  }
  const float num = 2.0F * inter + kEps;
  const float den = psum + tsum + kEps;
  for (std::size_t i = 0; i < n; ++i) {
    grad[i] += (num - 2.0F * target[i] * den) / (den * den);
  }
  return 1.0F - num / den;
}

double dice_score_raw(const float* prediction, const float* target, std::size_t n,
                      float threshold) {
  std::int64_t inter = 0, psum = 0, tsum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool p = prediction[i] > threshold;
    const bool t = target[i] > 0.5F;
    inter += static_cast<std::int64_t>(p && t);
    psum += static_cast<std::int64_t>(p);
    tsum += static_cast<std::int64_t>(t);
  }
  if (psum + tsum == 0) return 1.0;
  return 2.0 * static_cast<double>(inter) / static_cast<double>(psum + tsum);
}

}  // namespace dl2f::nn
