// Bitwise parity of the GEMM-lowered batched compute paths against the
// per-sample forward()/backward() oracle, plus the trainer's
// byte-identical-weights determinism contract.
//
// Layer-level: for every layer type (conv same/valid, dense, the stepped
// conv and windowed dense of the temporal head, activations, pooling) and
// edge batch sizes {1, 7, kSampleBlock+1}, infer_batch must reproduce
// forward() bit-for-bit per sample, and backward_batch must reproduce the exact
// parameter gradients and input gradients of running backward() sample by
// sample in batch order. The Same-padded convs also run at the models'
// frame shapes through Sequential::infer_batch.
//
// Trainer-level: train_detector/train_localizer must produce
// byte-identical weights for a fixed seed at 1, 2 and 4 threads (the
// fixed-order sliced gradient reduction), and identical bytes when run
// twice with the same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "core/detector.hpp"
#include "core/localizer.hpp"
#include "core/pipeline.hpp"
#include "monitor/dataset.hpp"
#include "nn/gemm.hpp"
#include "nn/inference.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"

namespace dl2f::nn {
namespace {

const std::vector<std::int32_t> kEdgeBatches{1, 7, gemm::kSampleBlock + 1};

/// Layer scratch starts as NaN: the layers share one arena, so a lowering
/// that reads a value it did not write this call (a Same conv's zero
/// border, say) poisons its outputs and fails the parity check.
const float kDirtyArena = std::numeric_limits<float>::quiet_NaN();

Tensor4 random_batch(std::int32_t n, const Tensor3& shape, Rng& rng, bool relu_sparse = false) {
  Tensor4 batch(n, shape.channels(), shape.height(), shape.width());
  for (float& v : batch.data()) {
    v = static_cast<float>(rng.uniform(-1.0, 1.0));
    // Exact zeros exercise the reference backward's g == 0 skip paths.
    if (relu_sparse && rng.uniform() < 0.4) v = 0.0F;
  }
  return batch;
}

Tensor3 sample_view(const Tensor4& batch, std::int32_t s, const Tensor3& shape) {
  Tensor3 t(shape.channels(), shape.height(), shape.width());
  std::copy(batch.sample(s), batch.sample(s) + batch.sample_size(), t.data().begin());
  return t;
}

/// Forward parity: infer_batch vs forward per sample.
void check_forward_parity(Layer& layer, const Tensor3& in_shape, std::uint64_t seed) {
  Rng rng(seed);
  layer.init_weights(rng);
  const Tensor3 out_shape = layer.output_shape(in_shape);
  for (const std::int32_t n : kEdgeBatches) {
    Tensor4 in = random_batch(n, in_shape, rng);
    Tensor4 out(n, out_shape.channels(), out_shape.height(), out_shape.width());
    std::vector<float> scratch(layer.infer_scratch_floats(in_shape), kDirtyArena);
    layer.infer_batch(in, out, scratch.data());
    for (std::int32_t s = 0; s < n; ++s) {
      const Tensor3 ref = layer.forward(sample_view(in, s, in_shape));
      ASSERT_EQ(ref.size(), out.sample_size());
      EXPECT_EQ(std::memcmp(ref.data().data(), out.sample(s), ref.size() * sizeof(float)), 0)
          << layer.name() << " batch " << n << " sample " << s;
    }
  }
}

/// Backward parity: backward_batch vs backward per sample in batch order
/// (parameter gradients accumulate across the batch exactly like the
/// sequential reference; input gradients match per sample).
void check_backward_parity(Layer& layer, const Tensor3& in_shape, std::uint64_t seed) {
  Rng rng(seed);
  layer.init_weights(rng);
  const Tensor3 out_shape = layer.output_shape(in_shape);
  for (const std::int32_t n : kEdgeBatches) {
    Tensor4 in = random_batch(n, in_shape, rng);
    Tensor4 out(n, out_shape.channels(), out_shape.height(), out_shape.width());
    Tensor4 grad_out = random_batch(n, out_shape, rng, /*relu_sparse=*/true);
    Tensor4 grad_in(n, in_shape.channels(), in_shape.height(), in_shape.width());

    // Reference: forward+backward per sample, Param::grad accumulating.
    for (auto* p : layer.params()) p->zero_grad();
    std::vector<Tensor3> ref_grad_in;
    for (std::int32_t s = 0; s < n; ++s) {
      (void)layer.forward(sample_view(in, s, in_shape));
      ref_grad_in.push_back(layer.backward(sample_view(grad_out, s, out_shape)));
    }
    std::vector<std::vector<float>> ref_grads;
    for (auto* p : layer.params()) ref_grads.push_back(p->grad);

    // Batched: infer_batch then backward_batch into external buffers.
    std::vector<float> scratch(layer.infer_scratch_floats(in_shape), kDirtyArena);
    layer.infer_batch(in, out, scratch.data());
    std::vector<std::vector<float>> grads;
    std::vector<float*> grad_ptrs;
    for (auto* p : layer.params()) {
      grads.emplace_back(p->size(), 0.0F);
      grad_ptrs.push_back(grads.back().data());
    }
    layer.backward_batch(grad_out, in, out, grad_in,
                         std::span<float* const>(grad_ptrs.data(), grad_ptrs.size()),
                         scratch.data(), /*need_input_grad=*/true);

    for (std::size_t b = 0; b < grads.size(); ++b) {
      EXPECT_EQ(std::memcmp(grads[b].data(), ref_grads[b].data(),
                            grads[b].size() * sizeof(float)),
                0)
          << layer.name() << " batch " << n << " param block " << b;
    }
    for (std::int32_t s = 0; s < n; ++s) {
      EXPECT_EQ(std::memcmp(ref_grad_in[static_cast<std::size_t>(s)].data().data(),
                            grad_in.sample(s), grad_in.sample_size() * sizeof(float)),
                0)
          << layer.name() << " batch " << n << " grad_in sample " << s;
    }
  }
}

/// Forward parity through the arena: Sequential::infer_batch vs
/// Sequential::forward per sample, one context across the edge batches.
void check_model_forward_parity(Sequential& model, const Tensor3& in_shape, std::uint64_t seed) {
  Rng rng(seed);
  model.init_weights(rng);
  InferenceContext ctx;
  ctx.bind(model, in_shape, *std::max_element(kEdgeBatches.begin(), kEdgeBatches.end()));
  for (const std::int32_t n : kEdgeBatches) {
    Tensor4& in = ctx.input(n);
    for (float& v : in.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const Tensor4& out = model.infer_batch(ctx);
    for (std::int32_t s = 0; s < n; ++s) {
      const Tensor3 ref = model.forward(sample_view(in, s, in_shape));
      ASSERT_EQ(ref.size(), out.sample_size());
      EXPECT_EQ(std::memcmp(ref.data().data(), out.sample(s), ref.size() * sizeof(float)), 0)
          << model.layer(0).name() << " batch " << n << " sample " << s;
    }
  }
}

TEST(BatchParity, Conv2DValidForward) {
  Conv2D conv(4, 8, 3, Padding::Valid);
  check_forward_parity(conv, Tensor3(4, 16, 15), 11);
}

TEST(BatchParity, Conv2DSameForward) {
  Conv2D conv(8, 8, 3, Padding::Same);
  check_forward_parity(conv, Tensor3(8, 9, 7), 12);
}

TEST(BatchParity, Conv2DSameForwardAtTheLocalizerShapes) {
  // The localizer's three convs on the 16x16 mesh's 16x15 frames (the
  // AVX2 kernel's wide path and its re-anchored tail chunk) and on the
  // 8x8 mesh's 8x7 frames (its masked narrow path).
  const std::int32_t convs[][2] = {{1, 8}, {8, 8}, {8, 1}};
  for (const auto& [h, w] : {std::pair{16, 15}, std::pair{8, 7}}) {
    for (const auto& [in_c, out_c] : convs) {
      SCOPED_TRACE(::testing::Message() << in_c << "->" << out_c << " on " << h << "x" << w);
      Sequential model;
      model.emplace<Conv2D>(in_c, out_c, 3, Padding::Same);
      check_model_forward_parity(model, Tensor3(in_c, h, w), 40);
    }
  }
}

TEST(BatchParity, SteppedConv2DSameForward) {
  // One Same-padded bank over 4 channel groups: each group gets its own
  // zero-bordered plane.
  Sequential model;
  model.emplace<Conv2D>(8, 8, 3, Padding::Same, /*steps=*/4);
  check_model_forward_parity(model, Tensor3(32, 8, 7), 41);
}

TEST(BatchParity, DenseForward) {
  Dense dense(336, 3);
  check_forward_parity(dense, Tensor3(336, 1, 1), 13);
}

TEST(BatchParity, SteppedConv2DForward) {
  // The temporal head's per-window embedding: one bank over 4 windows.
  Conv2D conv(8, 8, 3, Padding::Valid, /*steps=*/4);
  check_forward_parity(conv, Tensor3(32, 8, 7), 19);
}

TEST(BatchParity, WindowedDenseForward) {
  // The temporal head's convolution over time: 3 positions per sample, so
  // column panels straddle samples at every edge batch size.
  Dense dense(48, 16, /*steps=*/4, /*window=*/2);
  check_forward_parity(dense, Tensor3(192, 1, 1), 20);
}

TEST(BatchParity, ActivationAndPoolForward) {
  ReLU relu;
  check_forward_parity(relu, Tensor3(3, 5, 4), 14);
  Sigmoid sig;
  check_forward_parity(sig, Tensor3(2, 4, 4), 15);
  MaxPool2D pool(2);
  check_forward_parity(pool, Tensor3(3, 6, 6), 16);
  Flatten flat;
  check_forward_parity(flat, Tensor3(3, 4, 2), 17);
}

TEST(BatchParity, Conv2DValidBackward) {
  Conv2D conv(4, 8, 3, Padding::Valid);
  check_backward_parity(conv, Tensor3(4, 16, 15), 21);
}

TEST(BatchParity, Conv2DSameBackward) {
  Conv2D conv(8, 8, 3, Padding::Same);
  check_backward_parity(conv, Tensor3(8, 9, 7), 22);
}

TEST(BatchParity, Conv2DSameNarrowHeadBackward) {
  // The localizer's 1-filter segmentation head exercises the pack-free
  // direct weight-gradient path.
  Conv2D conv(8, 1, 3, Padding::Same);
  check_backward_parity(conv, Tensor3(8, 9, 7), 23);
}

TEST(BatchParity, DenseBackward) {
  Dense dense(48, 5);
  check_backward_parity(dense, Tensor3(48, 1, 1), 24);
}

TEST(BatchParity, SteppedConv2DBackward) {
  Conv2D conv(8, 8, 3, Padding::Valid, /*steps=*/4);
  check_backward_parity(conv, Tensor3(32, 8, 7), 30);
}

TEST(BatchParity, WindowedDenseBackward) {
  Dense dense(48, 16, /*steps=*/4, /*window=*/2);
  check_backward_parity(dense, Tensor3(192, 1, 1), 33);
}

TEST(BatchParity, ActivationAndPoolBackward) {
  ReLU relu;
  check_backward_parity(relu, Tensor3(3, 5, 4), 25);
  Sigmoid sig;
  check_backward_parity(sig, Tensor3(2, 4, 4), 26);
  MaxPool2D pool(2);
  check_backward_parity(pool, Tensor3(3, 6, 6), 27);
  Flatten flat;
  check_backward_parity(flat, Tensor3(3, 4, 2), 28);
}

/// Whole-model parity through the InferenceContext/GradientBuffer arena:
/// infer_batch + backward_batch vs the reference loop, detector-shaped.
TEST(BatchParity, DetectorStackForwardBackward) {
  Sequential model;
  model.emplace<Conv2D>(4, 8, 3, Padding::Valid);
  model.emplace<ReLU>();
  model.emplace<MaxPool2D>(2);
  model.emplace<Flatten>();
  model.emplace<Dense>(8 * 7 * 6, 1);
  model.emplace<Sigmoid>();
  Rng rng(31);
  model.init_weights(rng);

  const Tensor3 in_shape(4, 16, 15);
  const std::int32_t n = 7;
  InferenceContext ctx;
  ctx.bind_train(model, in_shape, n);
  Tensor4& in = ctx.input(n);
  for (float& v : in.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  const Tensor4& out = model.infer_batch(ctx);
  Tensor4& lg = ctx.loss_grad();
  for (float& v : lg.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  // Reference pass over the same samples, same loss gradients.
  for (Param* p : model.params()) p->zero_grad();
  std::vector<Tensor3> ref_outs;
  for (std::int32_t s = 0; s < n; ++s) {
    ref_outs.push_back(model.forward(sample_view(in, s, in_shape)));
    Tensor3 g(1, 1, 1);
    g.data()[0] = lg.sample(s)[0];
    (void)model.backward(g);
  }

  for (std::int32_t s = 0; s < n; ++s) {
    EXPECT_EQ(std::memcmp(ref_outs[static_cast<std::size_t>(s)].data().data(), out.sample(s),
                          out.sample_size() * sizeof(float)),
              0)
        << "output sample " << s;
  }

  // NOTE: the reference interleaves forward/backward per sample while the
  // batched path forwards everything first — identical math because
  // neither touches weights mid-pass.
  GradientBuffer grads;
  grads.bind(model);
  grads.zero();
  model.backward_batch(ctx, grads);
  const auto params = model.params();
  ASSERT_EQ(params.size(), grads.blocks.size());
  for (std::size_t b = 0; b < grads.blocks.size(); ++b) {
    EXPECT_EQ(std::memcmp(grads.blocks[b].data(), params[b]->grad.data(),
                          grads.blocks[b].size() * sizeof(float)),
              0)
        << "param block " << b;
  }
}

/// Localizer-shaped stack (same-padded convs, 1-filter head).
TEST(BatchParity, LocalizerStackForwardBackward) {
  Sequential model;
  model.emplace<Conv2D>(1, 8, 3, Padding::Same);
  model.emplace<ReLU>();
  model.emplace<Conv2D>(8, 8, 3, Padding::Same);
  model.emplace<ReLU>();
  model.emplace<Conv2D>(8, 1, 3, Padding::Same);
  model.emplace<Sigmoid>();
  Rng rng(32);
  model.init_weights(rng);

  const Tensor3 in_shape(1, 16, 15);
  const std::int32_t n = gemm::kSampleBlock + 1;
  InferenceContext ctx;
  ctx.bind_train(model, in_shape, n);
  Tensor4& in = ctx.input(n);
  for (float& v : in.data()) v = static_cast<float>(rng.uniform(0.0, 1.0));

  const Tensor4& out = model.infer_batch(ctx);
  Tensor4& lg = ctx.loss_grad();
  for (float& v : lg.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  for (Param* p : model.params()) p->zero_grad();
  std::vector<Tensor3> ref_outs;
  for (std::int32_t s = 0; s < n; ++s) {
    ref_outs.push_back(model.forward(sample_view(in, s, in_shape)));
    Tensor3 g(1, in_shape.height(), in_shape.width());
    std::copy(lg.sample(s), lg.sample(s) + lg.sample_size(), g.data().begin());
    (void)model.backward(g);
  }
  for (std::int32_t s = 0; s < n; ++s) {
    EXPECT_EQ(std::memcmp(ref_outs[static_cast<std::size_t>(s)].data().data(), out.sample(s),
                          out.sample_size() * sizeof(float)),
              0)
        << "output sample " << s;
  }

  GradientBuffer grads;
  grads.bind(model);
  grads.zero();
  model.backward_batch(ctx, grads);
  const auto params = model.params();
  for (std::size_t b = 0; b < grads.blocks.size(); ++b) {
    EXPECT_EQ(std::memcmp(grads.blocks[b].data(), params[b]->grad.data(),
                          grads.blocks[b].size() * sizeof(float)),
              0)
        << "param block " << b;
  }
}

// ------------------------------------------------- trainer determinism

monitor::Dataset tiny_dataset() {
  // Synthetic frames, deterministic; enough windows for several
  // minibatches including a partial tail.
  const MeshShape mesh = MeshShape::square(8);
  const monitor::FrameGeometry geom(mesh);
  Rng rng(0xd5);
  monitor::Dataset data;
  data.mesh = mesh;
  for (int i = 0; i < 11; ++i) {
    monitor::FrameSample s;
    s.under_attack = i % 2 == 0;
    for (Direction d : kMeshDirections) {
      Frame vco = geom.make_frame();
      Frame boc = geom.make_frame();
      Frame mask = geom.make_frame();
      for (float& v : vco.data()) v = static_cast<float>(rng.uniform());
      for (float& v : boc.data()) v = static_cast<float>(rng.uniform_int(0, 300));
      for (float& v : mask.data()) v = rng.uniform() < 0.1 ? 1.0F : 0.0F;
      monitor::frame_of(s.vco, d) = std::move(vco);
      monitor::frame_of(s.boc, d) = std::move(boc);
      monitor::frame_of(s.port_truth, d) = std::move(mask);
    }
    data.samples.push_back(std::move(s));
  }
  return data;
}

std::string trained_detector_blob(const monitor::Dataset& data, std::int32_t threads) {
  core::DetectorConfig cfg;
  cfg.mesh = data.mesh;
  core::DoSDetector det(cfg);
  (void)core::train_detector(det, data, {.epochs = 3, .seed = 77, .threads = threads});
  std::ostringstream os;
  det.model().save(os);
  return os.str();
}

std::string trained_localizer_blob(const monitor::Dataset& data, std::int32_t threads) {
  core::LocalizerConfig cfg;
  cfg.mesh = data.mesh;
  core::DoSLocalizer loc(cfg);
  (void)core::train_localizer(loc, data, {.epochs = 2, .seed = 78, .threads = threads});
  std::ostringstream os;
  loc.model().save(os);
  return os.str();
}

TEST(BatchTrainDeterminism, DetectorWeightsByteIdenticalAcrossThreadCounts) {
  const monitor::Dataset data = tiny_dataset();
  const std::string t1 = trained_detector_blob(data, 1);
  EXPECT_EQ(t1, trained_detector_blob(data, 2));
  EXPECT_EQ(t1, trained_detector_blob(data, 4));
  // Same seed, same thread count: reproducible.
  EXPECT_EQ(t1, trained_detector_blob(data, 1));
}

TEST(BatchTrainDeterminism, LocalizerWeightsByteIdenticalAcrossThreadCounts) {
  const monitor::Dataset data = tiny_dataset();
  const std::string t1 = trained_localizer_blob(data, 1);
  EXPECT_EQ(t1, trained_localizer_blob(data, 2));
  EXPECT_EQ(t1, trained_localizer_blob(data, 4));
}

TEST(BatchTrainDeterminism, TrainingConvergesOnSeparableLabels) {
  // The batched trainer must still LEARN: attack windows get a hot VCO
  // signature, benign ones stay cold; a few epochs must fit that.
  const MeshShape mesh = MeshShape::square(8);
  const monitor::FrameGeometry geom(mesh);
  Rng rng(0xab);
  monitor::Dataset data;
  data.mesh = mesh;
  for (int i = 0; i < 24; ++i) {
    monitor::FrameSample s;
    s.under_attack = i % 2 == 0;
    for (Direction d : kMeshDirections) {
      Frame vco = geom.make_frame();
      Frame boc = geom.make_frame();
      for (float& v : vco.data()) {
        v = static_cast<float>(s.under_attack ? rng.uniform(0.6, 1.0) : rng.uniform(0.0, 0.3));
      }
      for (float& v : boc.data()) v = static_cast<float>(rng.uniform_int(0, 100));
      monitor::frame_of(s.vco, d) = std::move(vco);
      monitor::frame_of(s.boc, d) = std::move(boc);
      monitor::frame_of(s.port_truth, d) = geom.make_frame();
    }
    data.samples.push_back(std::move(s));
  }

  core::PipelineEngine engine(core::Dl2FenceConfig::paper_default(mesh));
  (void)core::train_detector(engine.mutable_detector(), data,
                             {.epochs = 60, .seed = 5, .threads = 2});
  core::PipelineSession session(engine);
  const std::vector<float> probs = session.detect_batch(data.windows());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    const bool flagged = probs[i] > engine.config().detector.threshold;
    correct += flagged == data.samples[i].under_attack ? 1 : 0;
  }
  EXPECT_GE(static_cast<double>(correct), 0.9 * static_cast<double>(data.samples.size()));
}

}  // namespace
}  // namespace dl2f::nn
