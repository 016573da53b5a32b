#include "baseline/classifier.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "baseline/features.hpp"
#include "core/detector.hpp"
#include "monitor/dataset.hpp"
#include "staging.hpp"

namespace dl2f::baseline {
namespace {

/// Normal draw (Box-Muller) with mean 0 and standard deviation `sigma`.
double gaussian(Rng& rng, double sigma) {
  const double u = 1.0 - rng.uniform();  // (0, 1]: log stays finite
  return sigma * std::sqrt(-2.0 * std::log(u)) * std::cos(2.0 * std::numbers::pi * rng.uniform());
}

/// Linearly separable 2-D blobs.
LabeledData make_blobs(std::size_t n, double gap, std::uint64_t seed) {
  LabeledData data;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    const double cx = pos ? gap : -gap;
    data.x.push_back({static_cast<float>(cx + gaussian(rng, 0.5)),
                      static_cast<float>(gaussian(rng, 0.5))});
    data.y.push_back(pos ? 1 : 0);
  }
  return data;
}

/// XOR-ish data that no linear model separates but stumps partially can;
/// a thresholded single feature fully separates this variant.
LabeledData make_threshold_data(std::size_t n, std::uint64_t seed) {
  LabeledData data;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    const double v = pos ? rng.uniform(0.6, 1.0) : rng.uniform(0.0, 0.4);
    data.x.push_back({static_cast<float>(v), static_cast<float>(rng.uniform(0.0, 1.0))});
    data.y.push_back(pos ? 1 : 0);
  }
  return data;
}

template <typename Clf>
double train_and_score(Clf clf, const LabeledData& data) {
  clf.fit(data);
  return evaluate_classifier(clf, data).accuracy();
}

TEST(Perceptron, SeparatesLinearBlobs) {
  EXPECT_GE(train_and_score(Perceptron{}, make_blobs(200, 2.0, 3)), 0.97);
}

TEST(Perceptron, NamesItself) { EXPECT_EQ(Perceptron{}.name(), "Perceptron"); }

TEST(LinearSvm, SeparatesLinearBlobs) {
  EXPECT_GE(train_and_score(LinearSvm{}, make_blobs(200, 2.0, 5)), 0.95);
}

TEST(LinearSvm, MarginBeatsNoise) {
  // Overlapping blobs: SVM should still get most of them.
  EXPECT_GE(train_and_score(LinearSvm{}, make_blobs(400, 1.0, 7)), 0.85);
}

TEST(BoostedStumps, SeparatesThresholdData) {
  EXPECT_GE(train_and_score(BoostedStumps{}, make_threshold_data(200, 9)), 0.97);
}

TEST(BoostedStumps, HandlesDegenerateSingleClass) {
  LabeledData data;
  for (int i = 0; i < 10; ++i) {
    data.x.push_back({1.0F, 2.0F});
    data.y.push_back(1);
  }
  BoostedStumps clf;
  clf.fit(data);
  EXPECT_TRUE(clf.predict(data.x[0]));
}

TEST(BoostedStumps, EmptyDataIsSafe) {
  BoostedStumps clf;
  clf.fit(LabeledData{});  // must not crash
}

TEST(EvaluateClassifier, CountsAllSamples) {
  const auto data = make_blobs(100, 2.0, 3);
  Perceptron clf;
  clf.fit(data);
  const auto cm = evaluate_classifier(clf, data);
  EXPECT_EQ(cm.total(), 100);
}

/// A dataset of `n` all-zero windows on `mesh`.
monitor::Dataset blank_dataset(const MeshShape& mesh, int n) {
  const monitor::FrameGeometry geom(mesh);
  monitor::Dataset data;
  data.mesh = mesh;
  for (int i = 0; i < n; ++i) {
    monitor::FrameSample s;
    for (Direction d : kMeshDirections) {
      monitor::frame_of(s.vco, d) = geom.make_frame();
      monitor::frame_of(s.boc, d) = geom.make_frame();
    }
    data.samples.push_back(std::move(s));
  }
  return data;
}

TEST(Features, RowIs4Frames) {
  const auto ld = to_labeled_data(blank_dataset(MeshShape::square(8), 1), core::Feature::Vco);
  ASSERT_EQ(ld.size(), 1U);
  EXPECT_EQ(ld.x[0].size(), 4U * 8U * 7U);
}

TEST(Features, BocIsJointlyNormalized) {
  auto data = blank_dataset(MeshShape::square(4), 1);
  monitor::FrameSample& s = data.samples[0];
  monitor::frame_of(s.boc, Direction::East).at(0, 0) = 500.0F;
  monitor::frame_of(s.boc, Direction::West).at(0, 0) = 250.0F;
  const auto ld = to_labeled_data(data, core::Feature::Boc);
  const auto& x = ld.x[0];
  const float mx = *std::max_element(x.begin(), x.end());
  EXPECT_FLOAT_EQ(mx, 1.0F);
  // The 0.5 relative weight of the West pixel survives normalization.
  EXPECT_NE(std::find(x.begin(), x.end(), 0.5F), x.end());
}

TEST(Features, RowEqualsTheDetectorsStagedSample) {
  // Table 4 compares the CNN with baselines that must see the very input
  // the detector stages, value for value.
  const auto mesh = MeshShape::square(6);
  auto data = blank_dataset(mesh, 1);
  monitor::FrameSample& s = data.samples[0];
  Rng rng(5);
  for (Direction d : kMeshDirections) {
    for (float& v : monitor::frame_of(s.vco, d).data()) v = static_cast<float>(rng.uniform());
    for (float& v : monitor::frame_of(s.boc, d).data()) {
      v = static_cast<float>(rng.uniform_int(0, 4000));
    }
  }
  for (const core::Feature feature : {core::Feature::Vco, core::Feature::Boc}) {
    core::DetectorConfig cfg;
    cfg.mesh = mesh;
    cfg.feature = feature;
    const core::DoSDetector detector(cfg);
    const nn::Tensor3 staged = staged_window(detector, s);
    const auto ld = to_labeled_data(data, feature);
    const char* name = feature == core::Feature::Vco ? "VCO" : "BOC";
    ASSERT_EQ(ld.x[0].size(), staged.size()) << name;
    for (std::size_t i = 0; i < staged.size(); ++i) {
      ASSERT_EQ(ld.x[0][i], staged.data()[i]) << name << " at " << i;
    }
  }
}

TEST(Features, ToLabeledDataPreservesLabels) {
  auto data = blank_dataset(MeshShape::square(4), 6);
  for (int i = 0; i < 6; ++i) data.samples[static_cast<std::size_t>(i)].under_attack = i % 3 == 0;
  const auto ld = to_labeled_data(data, core::Feature::Vco);
  ASSERT_EQ(ld.size(), 6U);
  EXPECT_EQ(ld.y[0], 1);
  EXPECT_EQ(ld.y[1], 0);
  EXPECT_EQ(ld.y[3], 1);
}

}  // namespace
}  // namespace dl2f::baseline
