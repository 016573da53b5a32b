#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace dl2f::nn {
namespace {

struct Loss {
  float loss = 0.0F;
  std::vector<float> grad;
};

/// bce_loss_into at weight 1 over whole vectors.
Loss bce(const std::vector<float>& p, const std::vector<float>& t) {
  Loss r{0.0F, std::vector<float>(p.size())};
  r.loss = bce_loss_into(p.data(), t.data(), p.size(), 1.0F, r.grad.data());
  return r;
}

/// dice_loss_add over whole vectors, into a zeroed gradient.
Loss dice(const std::vector<float>& p, const std::vector<float>& t) {
  Loss r{0.0F, std::vector<float>(p.size())};
  r.loss = dice_loss_add(p.data(), t.data(), p.size(), r.grad.data());
  return r;
}

double dice_score(const std::vector<float>& p, const std::vector<float>& t,
                  float threshold = 0.5F) {
  return dice_score_raw(p.data(), t.data(), p.size(), threshold);
}

TEST(BceLoss, PerfectPredictionsNearZero) {
  EXPECT_LT(bce({0.9999F, 0.0001F}, {1.0F, 0.0F}).loss, 1e-3F);
}

TEST(BceLoss, KnownValue) {
  EXPECT_NEAR(bce({0.5F}, {1.0F}).loss, std::log(2.0F), 1e-5F);
}

TEST(BceLoss, ClampsExtremePredictions) {
  const auto r = bce({0.0F}, {1.0F});  // would be -log(0) = inf without clamping
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_TRUE(std::isfinite(r.grad[0]));
}

TEST(BceLoss, GradientMatchesFiniteDifference) {
  Rng rng(3);
  std::vector<float> p(6), t(6);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<float>(rng.uniform(0.05, 0.95));
    t[i] = rng.bernoulli(BernoulliP(0.5)) ? 1.0F : 0.0F;
  }
  const auto r = bce(p, t);
  constexpr float kEps = 1e-4F;
  for (std::size_t i = 0; i < p.size(); ++i) {
    auto plus = p, minus = p;
    plus[i] += kEps;
    minus[i] -= kEps;
    const float numeric = (bce(plus, t).loss - bce(minus, t).loss) / (2 * kEps);
    EXPECT_NEAR(r.grad[i], numeric, 1e-2F);
  }
}

TEST(DiceLoss, PerfectMaskNearZero) {
  EXPECT_LT(dice({1, 0, 0, 1}, {1, 0, 0, 1}).loss, 0.2F);  // eps-smoothed, not exactly 0
}

TEST(DiceLoss, DisjointMasksNearOne) {
  EXPECT_GT(dice({1, 0}, {0, 1}).loss, 0.5F);
}

TEST(DiceLoss, GradientMatchesFiniteDifference) {
  Rng rng(5);
  std::vector<float> p(4), t(4);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<float>(rng.uniform(0.1, 0.9));
    t[i] = rng.bernoulli(BernoulliP(0.5)) ? 1.0F : 0.0F;
  }
  const auto r = dice(p, t);
  constexpr float kEps = 1e-4F;
  for (std::size_t i = 0; i < p.size(); ++i) {
    auto plus = p, minus = p;
    plus[i] += kEps;
    minus[i] -= kEps;
    const float numeric = (dice(plus, t).loss - dice(minus, t).loss) / (2 * kEps);
    EXPECT_NEAR(r.grad[i], numeric, 1e-2F);
  }
}

TEST(DiceScore, MatchesSetFormula) {
  // Binarized prediction {1,1,0,0}; intersection 1, |P| 2, |T| 2 -> 2*1/4.
  EXPECT_DOUBLE_EQ(dice_score({0.9F, 0.8F, 0.1F, 0.2F}, {1, 0, 1, 0}), 0.5);
}

TEST(DiceScore, EmptyBothIsOne) {
  EXPECT_DOUBLE_EQ(dice_score({0, 0, 0}, {0, 0, 0}), 1.0);
}

TEST(DiceScore, ThresholdMatters) {
  EXPECT_DOUBLE_EQ(dice_score({0.4F, 0.4F}, {1, 1}, 0.5F), 0.0);
  EXPECT_DOUBLE_EQ(dice_score({0.4F, 0.4F}, {1, 1}, 0.3F), 1.0);
}

}  // namespace
}  // namespace dl2f::nn
