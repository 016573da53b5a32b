#include "core/evaluation.hpp"

#include <gtest/gtest.h>

namespace dl2f::core {
namespace {

TEST(DetectionMetrics, PassThroughFromConfusionMatrix) {
  ConfusionMatrix cm;
  cm.add(true, true);
  cm.add(true, false);
  cm.add(false, false);
  cm.add(false, false);
  const Metrics4 m = detection_metrics(cm);
  EXPECT_DOUBLE_EQ(m.accuracy, 0.75);
  EXPECT_DOUBLE_EQ(m.precision, 0.5);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
}

TEST(LocalizationScore, PerfectPrediction) {
  LocalizationScore s;
  s.add({1, 2, 3}, {1, 2, 3});
  const Metrics4 m = s.metrics();
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(LocalizationScore, ReproducesFig4ExampleNumbers) {
  // Fig. 4 second example: 25 true route nodes, 24 found, none spurious:
  // accuracy 0.96, precision 1, recall 0.96.
  LocalizationScore s;
  std::vector<NodeId> truth, predicted;
  for (NodeId n = 0; n < 25; ++n) truth.push_back(n);
  for (NodeId n = 0; n < 24; ++n) predicted.push_back(n);
  s.add(predicted, truth);
  const Metrics4 m = s.metrics();
  EXPECT_DOUBLE_EQ(m.accuracy, 0.96);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.96);
}

TEST(LocalizationScore, FalsePositivesHurtPrecisionAndAccuracy) {
  LocalizationScore s;
  s.add({1, 2, 99}, {1, 2});
  const Metrics4 m = s.metrics();
  EXPECT_DOUBLE_EQ(m.precision, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.accuracy, 2.0 / 3.0);  // Jaccard over the union
}

TEST(LocalizationScore, AccumulatesAcrossWindows) {
  LocalizationScore s;
  s.add({1}, {1});      // tp 1
  s.add({2}, {3});      // fp 1, fn 1
  const Metrics4 m = s.metrics();
  EXPECT_DOUBLE_EQ(m.precision, 0.5);     // tp / (tp + fp)
  EXPECT_DOUBLE_EQ(m.recall, 0.5);        // tp / (tp + fn)
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0 / 3.0);
}

TEST(LocalizationScore, HandlesUnsortedDuplicatedInput) {
  LocalizationScore s;
  s.add({3, 1, 1, 2}, {2, 3, 1});
  EXPECT_DOUBLE_EQ(s.metrics().accuracy, 1.0);
}

TEST(LocalizationScore, EmptyBothIsPerfect) {
  LocalizationScore s;
  s.add({}, {});
  EXPECT_DOUBLE_EQ(s.metrics().accuracy, 1.0);
}

TEST(AverageScores, UnweightedMean) {
  BenchmarkScore a;
  a.detection = {1.0, 1.0, 1.0, 1.0};
  a.localization = {0.8, 0.8, 0.8, 0.8};
  BenchmarkScore b;
  b.detection = {0.5, 0.5, 0.5, 0.5};
  b.localization = {0.4, 0.4, 0.4, 0.4};
  const auto avg = average_scores({a, b}, "Average");
  EXPECT_EQ(avg.benchmark, "Average");
  EXPECT_DOUBLE_EQ(avg.detection.accuracy, 0.75);
  EXPECT_DOUBLE_EQ(avg.localization.accuracy, 0.6);
}

TEST(AverageScores, EmptyListIsZeroed) {
  const auto avg = average_scores({}, "Average");
  EXPECT_DOUBLE_EQ(avg.detection.accuracy, 0.0);
}

}  // namespace
}  // namespace dl2f::core
