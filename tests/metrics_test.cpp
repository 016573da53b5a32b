#include "common/metrics.hpp"

#include <gtest/gtest.h>

namespace dl2f {
namespace {

TEST(ConfusionMatrix, EmptyConventions) {
  const ConfusionMatrix cm;
  EXPECT_EQ(cm.total(), 0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(cm.precision(), 1.0);  // nothing claimed
  EXPECT_DOUBLE_EQ(cm.recall(), 1.0);     // nothing missed
}

TEST(ConfusionMatrix, CountsRouteToCells) {
  ConfusionMatrix cm;
  cm.add(true, true);    // tp
  cm.add(true, false);   // fp
  cm.add(false, true);   // fn
  cm.add(false, false);  // tn
  EXPECT_EQ(cm.tp(), 1);
  EXPECT_EQ(cm.fp(), 1);
  EXPECT_EQ(cm.fn(), 1);
  EXPECT_EQ(cm.tn(), 1);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(cm.precision(), 0.5);
  EXPECT_DOUBLE_EQ(cm.recall(), 0.5);
  EXPECT_DOUBLE_EQ(cm.f1(), 0.5);
}

TEST(ConfusionMatrix, PerfectClassifier) {
  ConfusionMatrix cm;
  for (int i = 0; i < 10; ++i) cm.add(true, true);
  for (int i = 0; i < 10; ++i) cm.add(false, false);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(cm.precision(), 1.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 1.0);
  EXPECT_DOUBLE_EQ(cm.f1(), 1.0);
}

TEST(ConfusionMatrix, F1IsHarmonicMean) {
  ConfusionMatrix cm;
  // precision = 2/3, recall = 2/4.
  cm.add(true, true);
  cm.add(true, true);
  cm.add(true, false);
  cm.add(false, true);
  cm.add(false, true);
  const double p = 2.0 / 3.0, r = 0.5;
  EXPECT_DOUBLE_EQ(cm.f1(), 2 * p * r / (p + r));
}

}  // namespace
}  // namespace dl2f
