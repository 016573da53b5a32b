#include "common/frame.hpp"

#include <gtest/gtest.h>

namespace dl2f {
namespace {

TEST(Frame, DefaultIsEmpty) {
  const Frame f;
  EXPECT_EQ(f.size(), 0U);
  EXPECT_EQ(f.rows(), 0);
  EXPECT_EQ(f.cols(), 0);
}

TEST(Frame, FillConstruction) {
  const Frame f(3, 4, 2.5F);
  EXPECT_EQ(f.rows(), 3);
  EXPECT_EQ(f.cols(), 4);
  EXPECT_EQ(f.size(), 12U);
  for (std::int32_t r = 0; r < 3; ++r) {
    for (std::int32_t c = 0; c < 4; ++c) EXPECT_FLOAT_EQ(f.at(r, c), 2.5F);
  }
}

TEST(Frame, RowMajorStorage) {
  Frame f(2, 3);
  f.at(0, 0) = 1;
  f.at(0, 2) = 3;
  f.at(1, 0) = 4;
  EXPECT_FLOAT_EQ(f.data()[0], 1);
  EXPECT_FLOAT_EQ(f.data()[2], 3);
  EXPECT_FLOAT_EQ(f.data()[3], 4);
}

TEST(Frame, MaxAndSum) {
  Frame f(2, 2);
  f.at(0, 0) = -1;
  f.at(0, 1) = 3;
  f.at(1, 0) = 2;
  f.at(1, 1) = 0;
  EXPECT_FLOAT_EQ(f.max_value(), 3);
  EXPECT_FLOAT_EQ(f.sum(), 4);
}

TEST(Frame, EmptyStatsAreZero) {
  const Frame f;
  EXPECT_FLOAT_EQ(f.max_value(), 0);
  EXPECT_FLOAT_EQ(f.sum(), 0);
}

TEST(Frame, BinarizedThreshold) {
  Frame f(1, 4);
  f.at(0, 0) = 0.4F;
  f.at(0, 1) = 0.5F;
  f.at(0, 2) = 0.51F;
  f.at(0, 3) = 1.0F;
  const Frame b = f.binarized(0.5F);
  EXPECT_FLOAT_EQ(b.at(0, 0), 0);
  EXPECT_FLOAT_EQ(b.at(0, 1), 0);  // strictly greater
  EXPECT_FLOAT_EQ(b.at(0, 2), 1);
  EXPECT_FLOAT_EQ(b.at(0, 3), 1);
}

TEST(Frame, AccumulateMatchingShapes) {
  Frame a(2, 2, 1.0F);
  Frame b(2, 2, 2.0F);
  a += b;
  EXPECT_FLOAT_EQ(a.at(1, 1), 3.0F);
  EXPECT_FLOAT_EQ(b.at(1, 1), 2.0F);
}

TEST(Frame, EqualityComparesShapeAndData) {
  Frame a(2, 2, 1.0F);
  Frame b(2, 2, 1.0F);
  EXPECT_EQ(a, b);
  b.at(0, 0) = 2.0F;
  EXPECT_NE(a, b);
  EXPECT_NE(a, Frame(4, 1, 1.0F));
}

class FrameBinarizeSweep : public ::testing::TestWithParam<float> {};

TEST_P(FrameBinarizeSweep, OutputIsAlwaysBinaryAndMonotone) {
  Frame f(4, 4);
  for (std::int32_t r = 0; r < 4; ++r) {
    for (std::int32_t c = 0; c < 4; ++c) f.at(r, c) = static_cast<float>(r * 4 + c) / 15.0F;
  }
  const Frame b = f.binarized(GetParam());
  float ones = 0;
  for (float v : b.data()) {
    EXPECT_TRUE(v == 0.0F || v == 1.0F);
    ones += v;
  }
  // Higher thresholds can only reduce the positive count.
  const Frame b_higher = f.binarized(GetParam() + 0.1F);
  EXPECT_LE(b_higher.sum(), ones);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, FrameBinarizeSweep,
                         ::testing::Values(0.0F, 0.25F, 0.5F, 0.75F, 0.9F));

}  // namespace
}  // namespace dl2f
