#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dl2f::nn {
namespace {

/// Minimize f(w) = 0.5 * sum((w - target)^2) with gradient w - target.
double minimize(Adam& opt, Param& p, const std::vector<float>& target, int steps) {
  for (int s = 0; s < steps; ++s) {
    for (std::size_t i = 0; i < p.size(); ++i) p.grad[i] = p.value[i] - target[i];
    opt.step();
  }
  double err = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    err += std::abs(p.value[i] - target[i]);
  }
  return err;
}

TEST(Adam, ConvergesOnQuadratic) {
  Param p(3);
  p.value = {5.0F, -3.0F, 0.5F};
  const std::vector<float> target{1.0F, 2.0F, -1.0F};
  Adam opt({&p}, 0.1F);
  EXPECT_LT(minimize(opt, p, target, 300), 1e-2);
}

TEST(Adam, HandlesBadlyScaledGradients) {
  // One coordinate's gradient is 1000x the other; Adam's per-coordinate
  // scaling still converges both.
  Param p(2);
  p.value = {5.0F, 5.0F};
  Adam opt({&p}, 0.05F);
  for (int s = 0; s < 500; ++s) {
    p.grad[0] = 1000.0F * (p.value[0] - 1.0F);
    p.grad[1] = 0.001F * (p.value[1] - 1.0F);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 1.0F, 0.05F);
  EXPECT_NEAR(p.value[1], 1.0F, 0.5F);
}

TEST(Adam, StepClearsGradients) {
  Param p(2);
  p.grad = {1.0F, 2.0F};
  Adam opt({&p}, 0.1F);
  opt.step();
  EXPECT_FLOAT_EQ(p.grad[0], 0.0F);
  EXPECT_FLOAT_EQ(p.grad[1], 0.0F);
}

TEST(Adam, MultipleParamBlocks) {
  // Mirror-image blocks: each keeps its own moment estimates, so every
  // update of one is the exact negation of the other's.
  Param a(1), b(1);
  a.value = {4.0F};
  b.value = {-4.0F};
  Adam opt({&a, &b}, 0.1F);
  for (int s = 0; s < 300; ++s) {
    a.grad[0] = a.value[0];
    b.grad[0] = b.value[0];
    opt.step();
  }
  EXPECT_NEAR(a.value[0], 0.0F, 1e-2F);
  EXPECT_EQ(b.value[0], -a.value[0]);
}

}  // namespace
}  // namespace dl2f::nn
