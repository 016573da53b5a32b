#include "nn/tensor.hpp"

#include <gtest/gtest.h>

namespace dl2f::nn {
namespace {

TEST(Tensor3, ShapeAndIndexing) {
  Tensor3 t(2, 3, 4);
  EXPECT_EQ(t.channels(), 2);
  EXPECT_EQ(t.height(), 3);
  EXPECT_EQ(t.width(), 4);
  EXPECT_EQ(t.size(), 24U);
  t.at(1, 2, 3) = 5.0F;
  EXPECT_FLOAT_EQ(t.data()[23], 5.0F);
  t.at(0, 0, 1) = 2.0F;
  EXPECT_FLOAT_EQ(t.data()[1], 2.0F);
}

TEST(Tensor3, FillConstructorSetsEverything) {
  const Tensor3 t(1, 2, 2, 3.5F);
  for (float v : t.data()) EXPECT_FLOAT_EQ(v, 3.5F);
}

}  // namespace
}  // namespace dl2f::nn
