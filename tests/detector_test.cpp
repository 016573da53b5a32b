#include "core/detector.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "staging.hpp"

namespace dl2f::core {
namespace {

monitor::FrameSample make_sample(const MeshShape& mesh, bool attack, float level) {
  const monitor::FrameGeometry geom(mesh);
  monitor::FrameSample s;
  s.under_attack = attack;
  for (Direction d : kMeshDirections) {
    monitor::frame_of(s.vco, d) = geom.make_frame();
    monitor::frame_of(s.boc, d) = geom.make_frame();
    monitor::frame_of(s.port_truth, d) = geom.make_frame();
  }
  if (attack) {
    // A horizontal high-occupancy streak, like a flooded row.
    auto& f = monitor::frame_of(s.vco, Direction::West);
    for (std::int32_t c = 0; c < f.cols(); ++c) f.at(3, c) = level;
    auto& b = monitor::frame_of(s.boc, Direction::West);
    for (std::int32_t c = 0; c < b.cols(); ++c) b.at(3, c) = level * 4000.0F;
  }
  return s;
}

/// Chain Layer::output_shape through every layer, as
/// InferenceContext::bind does.
nn::Tensor3 chained_output_shape(const nn::Sequential& model, nn::Tensor3 shape) {
  for (std::size_t i = 0; i < model.layer_count(); ++i) shape = model.layer(i).output_shape(shape);
  return shape;
}

TEST(Detector, ArchitectureMatchesPaperShapes) {
  DetectorConfig cfg;
  cfg.mesh = MeshShape::square(16);
  DoSDetector det(cfg);
  // Input 4ch 16x15; conv valid 3x3 -> 8ch 14x13; pool2 -> 8ch 7x6;
  // flatten 336; dense -> 1.
  const auto out = chained_output_shape(det.model(), nn::Tensor3(4, 16, 15));
  EXPECT_EQ(out.channels(), 1);
  EXPECT_EQ(out.height(), 1);
  EXPECT_EQ(out.width(), 1);
  // Paper-text cross-check: (R-2)x(R-3)x8 conv and (R-9)x(R-10)x8 pooled.
  nn::Tensor3 shape(4, 16, 15);
  const auto conv_shape = det.model().layer(0).output_shape(shape);
  EXPECT_EQ(conv_shape.height(), 14);
  EXPECT_EQ(conv_shape.width(), 13);
  EXPECT_EQ(conv_shape.channels(), 8);
  // Total learnable scalars: 296 conv + 337 dense.
  EXPECT_EQ(det.model().param_count(), 633U);
}

TEST(Detector, ScalesWithMeshSize) {
  DetectorConfig cfg;
  cfg.mesh = MeshShape::square(8);
  DoSDetector det(cfg);
  EXPECT_NO_THROW((void)chained_output_shape(det.model(), nn::Tensor3(4, 8, 7)));
  const auto out = chained_output_shape(det.model(), nn::Tensor3(4, 8, 7));
  EXPECT_EQ(out.channels(), 1);
}

TEST(Detector, PreprocessStacksVcoRaw) {
  const auto mesh = MeshShape::square(8);
  DetectorConfig cfg;
  cfg.mesh = mesh;
  cfg.feature = Feature::Vco;
  DoSDetector det(cfg);
  auto s = make_sample(mesh, true, 0.75F);
  const auto t = staged_window(det, s);
  EXPECT_EQ(t.channels(), 4);
  EXPECT_EQ(t.height(), 8);
  EXPECT_EQ(t.width(), 7);
  // VCO passes through without normalization (§4).
  EXPECT_FLOAT_EQ(t.at(static_cast<std::int32_t>(Direction::West), 3, 0), 0.75F);
}

TEST(Detector, PreprocessNormalizesBocJointly) {
  const auto mesh = MeshShape::square(8);
  DetectorConfig cfg;
  cfg.mesh = mesh;
  cfg.feature = Feature::Boc;
  DoSDetector det(cfg);
  auto s = make_sample(mesh, true, 0.5F);
  const auto t = staged_window(det, s);
  float max_v = 0;
  for (float v : t.data()) max_v = std::max(max_v, v);
  EXPECT_FLOAT_EQ(max_v, 1.0F);
}

TEST(Detector, LearnsSyntheticSeparableData) {
  const auto mesh = MeshShape::square(8);
  PipelineEngine engine(Dl2FenceConfig::paper_default(mesh));

  monitor::Dataset train;
  train.mesh = mesh;
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const bool attack = i % 2 == 0;
    auto s = make_sample(mesh, attack, attack ? 0.8F : 0.0F);
    // Sprinkle benign noise everywhere.
    for (Direction d : kMeshDirections) {
      auto& f = monitor::frame_of(s.vco, d);
      for (float& v : f.data()) v += static_cast<float>(rng.uniform(0.0, 0.15));
    }
    train.samples.push_back(std::move(s));
  }

  const auto report =
      train_detector(engine.mutable_detector(), train, {.epochs = 50, .seed = 42});
  EXPECT_LT(report.final_loss, 0.3F);
  EXPECT_EQ(report.epochs_run, 50);

  PipelineSession session(engine);
  const std::vector<float> probs = session.detect_batch(train.windows());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    const bool flagged = probs[i] > engine.config().detector.threshold;
    correct += flagged == train.samples[i].under_attack ? 1 : 0;
  }
  EXPECT_GE(static_cast<double>(correct), 0.95 * static_cast<double>(train.samples.size()));
}

TEST(Detector, TrainingIsDeterministicPerSeed) {
  const auto mesh = MeshShape::square(8);
  monitor::Dataset data;
  data.mesh = mesh;
  for (int i = 0; i < 10; ++i) {
    data.samples.push_back(make_sample(mesh, i % 2 == 0, 0.9F));
  }
  const nn::TrainConfig tc{.epochs = 5, .seed = 42};
  const Dl2FenceConfig cfg = Dl2FenceConfig::paper_default(mesh);
  PipelineEngine a(cfg), b(cfg);
  const auto ra = train_detector(a.mutable_detector(), data, tc);
  const auto rb = train_detector(b.mutable_detector(), data, tc);
  EXPECT_FLOAT_EQ(ra.final_loss, rb.final_loss);
  EXPECT_EQ(PipelineSession(a).detect_batch(data.windows()),
            PipelineSession(b).detect_batch(data.windows()));
}

TEST(Detector, RejectsWindowsFromAnotherMesh) {
  // Training stages each window into a slot sized for the model's mesh: a
  // larger window corrupted the heap, a smaller one was trained on stale
  // slot contents. (PipelineSession.RejectsWindowsFromAnotherMesh covers
  // scoring.)
  for (const auto& [model_side, window_side] : {std::pair{8, 16}, std::pair{16, 8}}) {
    DetectorConfig cfg;
    cfg.mesh = MeshShape::square(model_side);
    DoSDetector det(cfg);
    monitor::Dataset data;
    data.mesh = MeshShape::square(window_side);
    data.samples = {make_sample(data.mesh, true, 0.8F), make_sample(data.mesh, false, 0.0F)};
    EXPECT_THROW((void)train_detector(det, data, {.epochs = 1, .seed = 1}),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace dl2f::core
