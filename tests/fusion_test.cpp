#include "core/fusion.hpp"

#include <gtest/gtest.h>

#include "monitor/dataset.hpp"
#include "traffic/fdos.hpp"

namespace dl2f::core {
namespace {

monitor::DirectionalFrames masks_for(const MeshShape& mesh,
                                     const traffic::AttackScenario& scenario) {
  const monitor::FrameGeometry geom(mesh);
  return monitor::ground_truth_masks(geom, scenario);
}

TEST(Fusion, EmptySegmentationsYieldNoVictims) {
  const auto mesh = MeshShape::square(8);
  const monitor::FrameGeometry geom(mesh);
  monitor::DirectionalFrames seg;
  for (Direction d : kMeshDirections) monitor::frame_of(seg, d) = geom.make_frame();
  const FusionResult r = multi_frame_fusion(geom, seg);
  EXPECT_TRUE(r.victims.empty());
  EXPECT_FLOAT_EQ(r.mff.sum(), 0.0F);
}

TEST(Fusion, PerfectMasksRecoverExactVictimSet) {
  const auto mesh = MeshShape::square(8);
  const monitor::FrameGeometry geom(mesh);
  traffic::AttackScenario s;
  s.attackers = {0};
  s.victim = 36;  // (4,4)
  const FusionResult r = multi_frame_fusion(geom, masks_for(mesh, s));
  EXPECT_EQ(r.victims, s.ground_truth_victims(mesh));
}

TEST(Fusion, TwoAttackerMasksRecoverUnion) {
  const auto mesh = MeshShape::square(8);
  const monitor::FrameGeometry geom(mesh);
  traffic::AttackScenario s;
  s.attackers = {7, 56};
  s.victim = 27;
  const FusionResult r = multi_frame_fusion(geom, masks_for(mesh, s));
  EXPECT_EQ(r.victims, s.ground_truth_victims(mesh));
}

TEST(Fusion, TurnNodeAccumulatesTwoDirections) {
  const auto mesh = MeshShape::square(8);
  const monitor::FrameGeometry geom(mesh);
  traffic::AttackScenario s;
  s.attackers = {0};
  s.victim = 18;  // route 0 -> 1 -> 2 -> 10 -> 18; turn at node 2
  const FusionResult r = multi_frame_fusion(geom, masks_for(mesh, s));
  const Coord turn = mesh.coord_of(2);
  // Node 2 is hit via its West input (X phase) only; node 10 via South.
  EXPECT_FLOAT_EQ(r.mff.at(turn.y, turn.x), 1.0F);
  // All route pixels are >= 1.
  for (NodeId v : s.ground_truth_victims(mesh)) {
    const Coord c = mesh.coord_of(v);
    EXPECT_GE(r.mff.at(c.y, c.x), 1.0F);
  }
}

TEST(Fusion, CrossingRoutesOverlapAccumulates) {
  const auto mesh = MeshShape::square(8);
  const monitor::FrameGeometry geom(mesh);
  // Two attackers whose routes both traverse the victim column.
  traffic::AttackScenario s;
  s.attackers = {16, 23};  // (0,2) and (7,2) flooding toward (3,2)=19
  s.victim = 19;
  const FusionResult r = multi_frame_fusion(geom, masks_for(mesh, s));
  const Coord c = mesh.coord_of(19);
  // Victim 19 receives from both West (via 18) and East (via 20) inputs.
  EXPECT_FLOAT_EQ(r.mff.at(c.y, c.x), 2.0F);
  EXPECT_EQ(r.victims, s.ground_truth_victims(mesh));
}

TEST(Fusion, LiftToNodeSpacePlacesPixelsAtRouters) {
  const auto mesh = MeshShape::square(4);
  const monitor::FrameGeometry geom(mesh);
  Frame seg = geom.make_frame();
  // East-frame pixel (row=1, col=2) belongs to router (2,1) = id 6.
  seg.at(1, 2) = 1.0F;
  const Frame node = lift_to_node_space(geom, Direction::East, seg);
  EXPECT_FLOAT_EQ(node.at(1, 2), 1.0F);
  EXPECT_FLOAT_EQ(node.sum(), 1.0F);
}

TEST(Fusion, BinarizeThresholdFiltersSoftMaps) {
  const auto mesh = MeshShape::square(4);
  const monitor::FrameGeometry geom(mesh);
  monitor::DirectionalFrames seg;
  for (Direction d : kMeshDirections) monitor::frame_of(seg, d) = geom.make_frame();
  monitor::frame_of(seg, Direction::East).at(0, 0) = 0.4F;  // below threshold
  monitor::frame_of(seg, Direction::East).at(1, 1) = 0.9F;  // above
  const FusionResult r = multi_frame_fusion(geom, seg, 0.5F);
  ASSERT_EQ(r.victims.size(), 1U);
  EXPECT_EQ(r.victims.front(), mesh.id_of(Coord{1, 1}));
}

}  // namespace
}  // namespace dl2f::core
