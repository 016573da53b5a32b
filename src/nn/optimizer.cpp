#include "nn/optimizer.hpp"

#include <cmath>
#include <utility>

namespace dl2f::nn {

namespace {

// The paper's defaults (Kingma & Ba, Algorithm 1).
constexpr float kBeta1 = 0.9F;
constexpr float kBeta2 = 0.999F;
constexpr float kEps = 1e-8F;

}  // namespace

Adam::Adam(std::vector<Param*> params, float lr) : params_(std::move(params)), lr_(lr) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto* p : params_) {
    m_.emplace_back(p->size(), 0.0F);
    v_.emplace_back(p->size(), 0.0F);
  }
}

void Adam::step() {
  ++t_;
  const auto t = static_cast<float>(t_);
  const float bc1 = 1.0F - std::pow(kBeta1, t);
  const float bc2 = 1.0F - std::pow(kBeta2, t);
  for (std::size_t b = 0; b < params_.size(); ++b) {
    auto& p = *params_[b];
    for (std::size_t i = 0; i < p.size(); ++i) {
      const float g = p.grad[i];
      m_[b][i] = kBeta1 * m_[b][i] + (1.0F - kBeta1) * g;
      v_[b][i] = kBeta2 * v_[b][i] + (1.0F - kBeta2) * g * g;
      const float mhat = m_[b][i] / bc1;
      const float vhat = v_[b][i] / bc2;
      p.value[i] -= lr_ * mhat / (std::sqrt(vhat) + kEps);
    }
    p.zero_grad();
  }
}

}  // namespace dl2f::nn
