#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "nn/model.hpp"

namespace dl2f::nn {
namespace {

TEST(Conv2D, ValidOutputShapeMatchesPaperDetector) {
  // For R = 16: input 4ch 16x15 -> conv(3x3, valid) -> 8ch 14x13.
  Conv2D conv(4, 8, 3, Padding::Valid);
  const auto out = conv.output_shape(Tensor3(4, 16, 15));
  EXPECT_EQ(out.channels(), 8);
  EXPECT_EQ(out.height(), 14);
  EXPECT_EQ(out.width(), 13);
}

TEST(Conv2D, SamePaddingPreservesShape) {
  Conv2D conv(1, 8, 3, Padding::Same);
  const auto out = conv.output_shape(Tensor3(1, 16, 15));
  EXPECT_EQ(out.height(), 16);
  EXPECT_EQ(out.width(), 15);
}

TEST(Conv2D, IdentityKernelForwards) {
  // 1x1 kernel with weight 1, bias 0 is the identity.
  Conv2D conv(1, 1, 1, Padding::Valid);
  conv.params()[0]->value[0] = 1.0F;
  Tensor3 in(1, 2, 2);
  in.at(0, 0, 0) = 1;
  in.at(0, 1, 1) = 4;
  const auto out = conv.forward(in);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 1);
  EXPECT_FLOAT_EQ(out.at(0, 1, 1), 4);
}

TEST(Conv2D, SumKernelComputesNeighborhoodSums) {
  Conv2D conv(1, 1, 3, Padding::Same);
  for (auto& w : conv.params()[0]->value) w = 1.0F;
  const Tensor3 in(1, 3, 3, 1.0F);
  const auto out = conv.forward(in);
  EXPECT_FLOAT_EQ(out.at(0, 1, 1), 9.0F);  // full 3x3 window
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 4.0F);  // corner sees 2x2
  EXPECT_FLOAT_EQ(out.at(0, 0, 1), 6.0F);  // edge sees 2x3
}

TEST(Conv2D, BiasAddsPerChannel) {
  Conv2D conv(1, 2, 1, Padding::Valid);
  conv.params()[0]->value = {0.0F, 0.0F};
  conv.params()[1]->value = {1.5F, -2.0F};
  Tensor3 in(1, 1, 1);
  const auto out = conv.forward(in);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 1.5F);
  EXPECT_FLOAT_EQ(out.at(1, 0, 0), -2.0F);
}

TEST(Conv2D, MultiChannelAccumulates) {
  Conv2D conv(2, 1, 1, Padding::Valid);
  conv.params()[0]->value = {2.0F, 3.0F};  // w[out0][in0], w[out0][in1]
  Tensor3 in(2, 1, 1);
  in.at(0, 0, 0) = 1.0F;
  in.at(1, 0, 0) = 1.0F;
  EXPECT_FLOAT_EQ(conv.forward(in).at(0, 0, 0), 5.0F);
}

TEST(MaxPool2D, PicksWindowMaxima) {
  MaxPool2D pool(2);
  Tensor3 in(1, 4, 4);
  for (std::int32_t h = 0; h < 4; ++h) {
    for (std::int32_t w = 0; w < 4; ++w) in.at(0, h, w) = static_cast<float>(h * 4 + w);
  }
  const auto out = pool.forward(in);
  EXPECT_EQ(out.height(), 2);
  EXPECT_EQ(out.width(), 2);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 5);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1), 7);
  EXPECT_FLOAT_EQ(out.at(0, 1, 0), 13);
  EXPECT_FLOAT_EQ(out.at(0, 1, 1), 15);
}

TEST(MaxPool2D, OddSizesFloorDivide) {
  MaxPool2D pool(2);
  // Paper: 14x13 -> 7x6.
  const auto out = pool.output_shape(Tensor3(8, 14, 13));
  EXPECT_EQ(out.height(), 7);
  EXPECT_EQ(out.width(), 6);
}

TEST(MaxPool2D, BackwardRoutesGradientToArgmax) {
  MaxPool2D pool(2);
  Tensor3 in(1, 2, 2);
  in.at(0, 0, 0) = 1;
  in.at(0, 0, 1) = 9;
  in.at(0, 1, 0) = 3;
  in.at(0, 1, 1) = 2;
  (void)pool.forward(in);
  Tensor3 g(1, 1, 1);
  g.at(0, 0, 0) = 5.0F;
  const auto gin = pool.backward(g);
  EXPECT_FLOAT_EQ(gin.at(0, 0, 1), 5.0F);
  EXPECT_FLOAT_EQ(gin.at(0, 0, 0), 0.0F);
  EXPECT_FLOAT_EQ(gin.at(0, 1, 0), 0.0F);
}

TEST(MaxPool2D, AllNaNWindowDropsItsGradient) {
  // No NaN compares greater than -inf, so an all-NaN window selects no
  // input element: both backward paths must drop its gradient (instead of
  // scattering it out of bounds) and agree on every other window.
  MaxPool2D pool(2);
  Tensor3 in(1, 4, 4);
  for (std::int32_t h = 0; h < 4; ++h) {
    for (std::int32_t w = 0; w < 4; ++w) in.at(0, h, w) = static_cast<float>(h * 4 + w);
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  in.at(0, 0, 2) = in.at(0, 0, 3) = in.at(0, 1, 2) = in.at(0, 1, 3) = nan;
  (void)pool.forward(in);
  Tensor3 g(1, 2, 2);
  g.data() = {1.0F, 2.0F, 3.0F, 4.0F};
  const Tensor3 ref = pool.backward(g);

  Tensor4 in_b(1, 1, 4, 4), out_b(1, 1, 2, 2), g_b(1, 1, 2, 2), gi_b(1, 1, 4, 4);
  std::copy(in.data().begin(), in.data().end(), in_b.data().begin());
  std::copy(g.data().begin(), g.data().end(), g_b.data().begin());
  pool.infer_batch(in_b, out_b, nullptr);
  pool.backward_batch(g_b, in_b, out_b, gi_b, {}, nullptr, /*need_input_grad=*/true);

  for (std::int32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(ref.data()[static_cast<std::size_t>(i)], gi_b.sample(0)[i]) << "element " << i;
  }
  EXPECT_FLOAT_EQ(ref.at(0, 1, 1), 1.0F);
  EXPECT_FLOAT_EQ(ref.at(0, 3, 1), 3.0F);
  EXPECT_FLOAT_EQ(ref.at(0, 3, 3), 4.0F);
  float total = 0.0F;
  for (float v : ref.data()) total += v;
  EXPECT_FLOAT_EQ(total, 8.0F);  // the NaN window's 2.0 is dropped
}

TEST(ReLU, ClampsNegativesForwardAndBackward) {
  ReLU relu;
  Tensor3 in(1, 1, 3);
  in.at(0, 0, 0) = -1;
  in.at(0, 0, 1) = 0;
  in.at(0, 0, 2) = 2;
  const auto out = relu.forward(in);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0);
  EXPECT_FLOAT_EQ(out.at(0, 0, 2), 2);
  const Tensor3 g(1, 1, 3, 1.0F);
  const auto gin = relu.backward(g);
  EXPECT_FLOAT_EQ(gin.at(0, 0, 0), 0);
  EXPECT_FLOAT_EQ(gin.at(0, 0, 1), 0);  // gradient 0 at exactly 0
  EXPECT_FLOAT_EQ(gin.at(0, 0, 2), 1);
}

TEST(SigmoidLayer, KnownValues) {
  Sigmoid sig;
  Tensor3 in(1, 1, 3);
  in.at(0, 0, 0) = 0.0F;
  in.at(0, 0, 1) = 100.0F;
  in.at(0, 0, 2) = -100.0F;
  const auto out = sig.forward(in);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0.5F);
  EXPECT_NEAR(out.at(0, 0, 1), 1.0F, 1e-6);
  EXPECT_NEAR(out.at(0, 0, 2), 0.0F, 1e-6);
}

TEST(FlattenLayer, RoundTripsShape) {
  Flatten flat;
  Tensor3 in(2, 3, 4);
  in.at(1, 2, 3) = 7.0F;
  const auto out = flat.forward(in);
  EXPECT_EQ(out.channels(), 24);
  EXPECT_EQ(out.height(), 1);
  const auto gin = flat.backward(out);
  EXPECT_EQ(gin.channels(), 2);
  EXPECT_EQ(gin.height(), 3);
  EXPECT_FLOAT_EQ(gin.at(1, 2, 3), 7.0F);
}

TEST(DenseLayer, LinearMap) {
  Dense dense(2, 2);
  dense.params()[0]->value = {1, 2, 3, 4};  // row-major out x in
  dense.params()[1]->value = {0.5F, -0.5F};
  Tensor3 in(2, 1, 1);
  in.at(0, 0, 0) = 1;
  in.at(1, 0, 0) = 1;
  const auto out = dense.forward(in);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 3.5F);
  EXPECT_FLOAT_EQ(out.at(1, 0, 0), 6.5F);
}

TEST(Layers, InitWeightsIsDeterministicPerSeed) {
  Conv2D a(1, 4, 3, Padding::Same), b(1, 4, 3, Padding::Same);
  Rng ra(5), rb(5);
  a.init_weights(ra);
  b.init_weights(rb);
  EXPECT_EQ(a.params()[0]->value, b.params()[0]->value);
}

TEST(Layers, NumParamsMatchesParamsVectorForEveryLayerKind) {
  // backward_batch sizes its gradient views from the allocation-free
  // num_params(); a layer whose override drifts from params() corrupts
  // the flat gradient-block layout. Pin every layer kind.
  Conv2D conv(4, 8, 3, Padding::Valid);
  Conv2D stepped_conv(4, 8, 3, Padding::Same, /*steps=*/4);
  Dense dense(336, 1);
  Dense windowed_dense(8, 8, /*steps=*/4, /*window=*/3);
  MaxPool2D pool(2);
  ReLU relu;
  Sigmoid sigmoid;
  Flatten flatten;
  for (Layer* layer : {static_cast<Layer*>(&conv), static_cast<Layer*>(&stepped_conv),
                       static_cast<Layer*>(&dense), static_cast<Layer*>(&windowed_dense),
                       static_cast<Layer*>(&pool), static_cast<Layer*>(&relu),
                       static_cast<Layer*>(&sigmoid), static_cast<Layer*>(&flatten)}) {
    EXPECT_EQ(layer->num_params(), layer->params().size()) << layer->name();
  }
}

TEST(Layers, ParamCountsMatchPaperArchitectures) {
  // Detector conv: 4 -> 8 3x3 = 288 weights + 8 biases.
  Sequential det;
  det.emplace<Conv2D>(4, 8, 3, Padding::Valid);
  EXPECT_EQ(det.param_count(), 296U);
  // Detector dense for 16x16 mesh: 8 * 7 * 6 = 336 -> 1.
  det.emplace<Dense>(336, 1);
  EXPECT_EQ(det.param_count(), 296U + 337U);
  // Localizer convs: 80 + 584 + 73.
  Sequential loc;
  loc.emplace<Conv2D>(1, 8, 3, Padding::Same)
      .emplace<Conv2D>(8, 8, 3, Padding::Same)
      .emplace<Conv2D>(8, 1, 3, Padding::Same);
  EXPECT_EQ(loc.param_count(), 737U);
}

}  // namespace
}  // namespace dl2f::nn
