#include "core/localizer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <utility>

#include "monitor/dataset.hpp"
#include "traffic/fdos.hpp"

namespace dl2f::core {
namespace {

/// Chain Layer::output_shape through every layer, as
/// InferenceContext::bind does.
nn::Tensor3 chained_output_shape(const nn::Sequential& model, nn::Tensor3 shape) {
  for (std::size_t i = 0; i < model.layer_count(); ++i) shape = model.layer(i).output_shape(shape);
  return shape;
}

TEST(Localizer, ArchitecturePreservesFrameShape) {
  LocalizerConfig cfg;
  cfg.mesh = MeshShape::square(16);
  DoSLocalizer loc(cfg);
  const auto out = chained_output_shape(loc.model(), nn::Tensor3(1, 16, 15));
  EXPECT_EQ(out.channels(), 1);
  EXPECT_EQ(out.height(), 16);
  EXPECT_EQ(out.width(), 15);
  // Three conv layers: 80 + 584 + 73 learnable scalars.
  EXPECT_EQ(loc.model().param_count(), 737U);
}

TEST(Localizer, PreprocessNormalizesBocOnly) {
  LocalizerConfig cfg;
  cfg.mesh = MeshShape::square(8);
  cfg.feature = Feature::Boc;
  DoSLocalizer boc_loc(cfg);
  nn::Tensor4 staged(2, 1, 8, 7);
  Frame f(8, 7);
  f.at(0, 0) = 4000.0F;
  f.at(1, 1) = 2000.0F;
  boc_loc.preprocess_into(f, staged, 0);
  EXPECT_FLOAT_EQ(staged.sample(0)[0], 1.0F);
  EXPECT_FLOAT_EQ(staged.sample(0)[1 * 7 + 1], 0.5F);  // row 1, col 1 of the 8x7 frame
  // An all-zero BOC frame passes through unchanged (no division by 0).
  staged.data().assign(staged.size(), 7.0F);
  const Frame zero(8, 7);
  boc_loc.preprocess_into(zero, staged, 1);
  for (std::size_t i = 0; i < zero.size(); ++i) EXPECT_EQ(staged.sample(1)[i], 0.0F);

  cfg.feature = Feature::Vco;
  DoSLocalizer vco_loc(cfg);
  Frame v(8, 7);
  v.at(0, 0) = 0.5F;
  vco_loc.preprocess_into(v, staged, 0);
  EXPECT_FLOAT_EQ(staged.sample(0)[0], 0.5F);
}

TEST(Localizer, LearnsToSegmentSyntheticRoutes) {
  // Train on synthetic "hot route" frames: a high-count streak against a
  // noisy background; the model must learn to segment the streak.
  const auto mesh = MeshShape::square(8);
  const monitor::FrameGeometry geom(mesh);
  LocalizerConfig cfg;
  cfg.mesh = mesh;
  DoSLocalizer loc(cfg);

  monitor::Dataset data;
  data.mesh = mesh;
  Rng rng(17);
  for (int i = 0; i < 30; ++i) {
    monitor::FrameSample s;
    s.under_attack = true;
    const auto row = static_cast<std::int32_t>(rng.uniform_int(0, 7));
    for (Direction d : kMeshDirections) {
      monitor::frame_of(s.vco, d) = geom.make_frame();
      Frame boc = geom.make_frame();
      Frame mask = geom.make_frame();
      for (float& v : boc.data()) v = static_cast<float>(rng.uniform(0.0, 300.0));
      if (d == Direction::West) {
        for (std::int32_t c = 0; c < boc.cols(); ++c) {
          boc.at(row, c) = static_cast<float>(rng.uniform(3200.0, 4000.0));
          mask.at(row, c) = 1.0F;
        }
      }
      monitor::frame_of(s.boc, d) = std::move(boc);
      monitor::frame_of(s.port_truth, d) = std::move(mask);
    }
    data.samples.push_back(std::move(s));
  }

  const auto report = train_localizer(loc, data, {.epochs = 30, .seed = 43});
  EXPECT_EQ(report.epochs_run, 30);
  EXPECT_GT(report.final_metric, 0.85);
}

TEST(Localizer, TrainingRejectsWindowsFromAnotherMesh) {
  // Each (window, direction) frame is staged into a slot sized for the
  // model's mesh, and the loss reads a mask of the same size: a larger
  // frame overran the slot, and a live window's empty masks were read
  // past their end, without any error.
  for (const auto& [model_side, window_side, masks] :
       {std::tuple{8, 16, true}, std::tuple{16, 8, true}, std::tuple{8, 8, false}}) {
    LocalizerConfig cfg;
    cfg.mesh = MeshShape::square(model_side);
    DoSLocalizer loc(cfg);
    const monitor::FrameGeometry geom(MeshShape::square(window_side));
    monitor::FrameSample s;
    s.under_attack = true;
    for (Direction d : kMeshDirections) {
      monitor::frame_of(s.vco, d) = geom.make_frame();
      monitor::frame_of(s.boc, d) = geom.make_frame();
      if (masks) monitor::frame_of(s.port_truth, d) = geom.make_frame();
    }
    monitor::Dataset data;
    data.mesh = geom.mesh();
    data.samples = {s, s};
    EXPECT_THROW((void)train_localizer(loc, data, {.epochs = 1, .seed = 1}),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace dl2f::core
