#include "hw/area_model.hpp"

#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "core/localizer.hpp"

namespace dl2f::hw {
namespace {

TEST(AreaModel, RouterBuffersDominate) {
  const double buffers = static_cast<double>(kRouterPorts) * kRouterVcsPerPort * kRouterVcDepth *
                         kFlitBits * kFfGePerBit;
  EXPECT_GT(buffers / router_area_ge(), 0.5);
}

TEST(AreaModel, NocAreaScalesWithNodeCount) {
  const double a8 = noc_area_ge(MeshShape::square(8));
  const double a16 = noc_area_ge(MeshShape::square(16));
  EXPECT_NEAR(a16 / a8, 4.0, 0.1);  // routers dominate; links are minor
}

TEST(AreaModel, DefaultWeightCountMatchesActualModels) {
  // The analytic model's weight budget must equal the real parameter
  // counts of the 16x16 detector + localizer built by dl2f_core.
  core::DetectorConfig dcfg;
  dcfg.mesh = MeshShape::square(16);
  core::DoSDetector det(dcfg);
  core::LocalizerConfig lcfg;
  lcfg.mesh = MeshShape::square(16);
  core::DoSLocalizer loc(lcfg);
  EXPECT_EQ(static_cast<std::size_t>(default_weight_count()),
            det.model().param_count() + loc.model().param_count());
}

TEST(AreaModel, AcceleratorIsFixedSize) {
  EXPECT_DOUBLE_EQ(accelerator_area_ge(), accelerator_area_ge());
  EXPECT_GT(accelerator_area_ge(), 0.0);
}

TEST(Fig5, OverheadMatchesPublishedPointsWithinTolerance) {
  // Paper Fig. 5: 4x4 -> 7.40%, 8x8 -> 1.90%, 16x16 -> 0.45%, 32x32 -> 0.11%.
  EXPECT_NEAR(overhead_percent(MeshShape::square(4)), 7.40, 0.8);
  EXPECT_NEAR(overhead_percent(MeshShape::square(8)), 1.90, 0.2);
  EXPECT_NEAR(overhead_percent(MeshShape::square(16)), 0.45, 0.05);
  EXPECT_NEAR(overhead_percent(MeshShape::square(32)), 0.11, 0.02);
}

TEST(Fig5, OverheadDecreasesRoughly4xPerDoubling) {
  double previous = overhead_percent(MeshShape::square(4));
  for (const std::int32_t r : {8, 16, 32}) {
    const double current = overhead_percent(MeshShape::square(r));
    EXPECT_LT(current, previous);
    EXPECT_NEAR(previous / current, 4.0, 0.4);
    previous = current;
  }
}

TEST(Fig5, PublishedDecrease8To16Is76Percent) {
  const double o8 = overhead_percent(MeshShape::square(8));
  const double o16 = overhead_percent(MeshShape::square(16));
  // Paper: "hardware overhead notably decreases by 76.3% when scaling from
  // 8x8 to 16x16 NoCs".
  EXPECT_NEAR((o8 - o16) / o8 * 100.0, 76.3, 2.0);
}

TEST(Table4, BeatsSnifferAt8x8ByRoughly42Percent) {
  const double ours = overhead_percent(MeshShape::square(8));
  // Paper: "42.4% less hardware compared to [2]" (Sniffer at 3.3%).
  const double reduction = (kSnifferOverheadPercent - ours) / kSnifferOverheadPercent * 100.0;
  EXPECT_NEAR(reduction, 42.4, 8.0);
  EXPECT_LT(ours, kSnifferOverheadPercent);
  EXPECT_LT(ours, kSvmOverheadPercent);
}

TEST(AreaModel, MoreWeightsMoreArea) {
  EXPECT_GT(accelerator_area_ge(default_weight_count() * 10), accelerator_area_ge());
}

}  // namespace
}  // namespace dl2f::hw
