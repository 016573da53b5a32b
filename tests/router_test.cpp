#include "noc/router.hpp"

#include <gtest/gtest.h>

#include "common/geometry.hpp"

namespace dl2f::noc {
namespace {

RouterConfig small_cfg() {
  RouterConfig cfg;
  cfg.vcs_per_port = 2;
  cfg.vc_depth = 2;
  return cfg;
}

Flit make_flit(NodeId src, NodeId dst, FlitType type = FlitType::HeadTail) {
  Flit f;
  f.packet = 1;
  f.src = src;
  f.dst = dst;
  f.type = type;
  return f;
}

TEST(Router, CornerAndCenterConnectivity) {
  const auto mesh = MeshShape::square(4);
  const Router corner(0, mesh, small_cfg());  // bottom-left (0,0)
  EXPECT_TRUE(corner.input(Direction::East).connected);
  EXPECT_TRUE(corner.input(Direction::North).connected);
  EXPECT_FALSE(corner.input(Direction::West).connected);
  EXPECT_FALSE(corner.input(Direction::South).connected);
  EXPECT_TRUE(corner.input(Direction::Local).connected);

  const Router center(5, mesh, small_cfg());  // (1,1)
  for (Direction d : kMeshDirections) EXPECT_TRUE(center.input(d).connected);
}

TEST(Router, VcOccupancyCountsOccupiedChannels) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  EXPECT_DOUBLE_EQ(r.input(Direction::East).vc_occupancy(), 0.0);
  r.accept_flit(Direction::East, 0, make_flit(6, 4));
  EXPECT_DOUBLE_EQ(r.input(Direction::East).vc_occupancy(), 0.5);
  r.accept_flit(Direction::East, 1, make_flit(6, 4));
  EXPECT_DOUBLE_EQ(r.input(Direction::East).vc_occupancy(), 1.0);
}

TEST(Router, DisconnectedPortReportsZeroOccupancy) {
  const auto mesh = MeshShape::square(4);
  const Router corner(0, mesh, small_cfg());
  EXPECT_DOUBLE_EQ(corner.input(Direction::West).vc_occupancy(), 0.0);
}

TEST(Router, AcceptFlitCountsBufferWrite) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  r.accept_flit(Direction::North, 0, make_flit(9, 1));
  EXPECT_EQ(r.input(Direction::North).telemetry.buffer_writes, 1);
  EXPECT_EQ(r.input(Direction::North).telemetry.buffer_reads, 0);
  EXPECT_EQ(r.input(Direction::North).telemetry.operations(), 1);
}

TEST(Router, EjectsFlitForOwnNode) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  r.accept_flit(Direction::East, 0, make_flit(6, 5));

  LinkStage out;
  r.step(mesh, out);

  ASSERT_EQ(out.ejected.size(), 1U);
  EXPECT_EQ(out.ejected.front().dst, 5);
  for (const auto& list : out.transfers) EXPECT_TRUE(list.empty());
  // Reading the flit returns a credit to the East upstream (node 6), whose
  // West output fed our East input.
  ASSERT_EQ(out.credits[LinkStage::kOwn].size(), 1U);
  const CreditReturn& c = out.credits[LinkStage::kOwn].front();
  EXPECT_EQ(c.to, 6);
  EXPECT_EQ(c.out_dir, Direction::West);
  EXPECT_EQ(c.vc, 0);
  EXPECT_EQ(r.input(Direction::East).telemetry.buffer_reads, 1);
}

TEST(Router, ForwardsFlitAlongXyRoute) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  // dst 7 = (3,1): same row, East of node 5=(1,1).
  r.accept_flit(Direction::West, 0, make_flit(4, 7));

  LinkStage out;
  r.step(mesh, out);

  // The flit lands on the West input of the East neighbor (node 6).
  ASSERT_EQ(out.transfers[LinkStage::kOwn].size(), 1U);
  const LinkTransfer& t = out.transfers[LinkStage::kOwn].front();
  EXPECT_EQ(t.to, 6);
  EXPECT_EQ(t.in_dir, Direction::West);
  EXPECT_EQ(t.flit.dst, 7);
  EXPECT_TRUE(out.ejected.empty());
  // The credit goes back to node 4, whose East output fed our West input.
  ASSERT_EQ(out.credits[LinkStage::kOwn].size(), 1U);
  EXPECT_EQ(out.credits[LinkStage::kOwn].front().to, 4);
  EXPECT_EQ(out.credits[LinkStage::kOwn].front().out_dir, Direction::East);
}

TEST(Router, StagesIntoTheListOfTheReceiversBand) {
  // Node 5 = (1,1) in a band of rows 1..1 (ids [4, 8)): its South neighbor
  // (node 1) sits in the previous band, its North neighbor (node 9) in the
  // next one, and East/West stay in its own.
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg(), 4, 8);
  r.accept_flit(Direction::North, 0, make_flit(9, 1));  // heads South to node 1

  LinkStage out;
  r.step(mesh, out);

  EXPECT_TRUE(out.transfers[LinkStage::kOwn].empty());
  EXPECT_TRUE(out.transfers[LinkStage::kNext].empty());
  ASSERT_EQ(out.transfers[LinkStage::kPrev].size(), 1U);
  const LinkTransfer& t = out.transfers[LinkStage::kPrev].front();
  EXPECT_EQ(t.to, 1);
  EXPECT_EQ(t.in_dir, Direction::North);
  // The credit returns North, to node 9's South output, in the next band.
  EXPECT_TRUE(out.credits[LinkStage::kOwn].empty());
  EXPECT_TRUE(out.credits[LinkStage::kPrev].empty());
  ASSERT_EQ(out.credits[LinkStage::kNext].size(), 1U);
  const CreditReturn& c = out.credits[LinkStage::kNext].front();
  EXPECT_EQ(c.to, 9);
  EXPECT_EQ(c.out_dir, Direction::South);
  EXPECT_EQ(c.vc, 0);
}

TEST(Router, CreditDecrementsOnSendAndRestoresOnReturn) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  r.accept_flit(Direction::West, 0, make_flit(4, 7));

  LinkStage out;
  r.step(mesh, out);
  ASSERT_EQ(out.transfers[LinkStage::kOwn].size(), 1U);
  const LinkTransfer& t = out.transfers[LinkStage::kOwn].front();
  EXPECT_EQ(t.to, 6);
  EXPECT_EQ(t.in_dir, Direction::West);
  const auto vc = t.vc;
  EXPECT_EQ(r.output(Direction::East).credits[static_cast<std::size_t>(vc)],
            small_cfg().vc_depth - 1);
  r.accept_credit(Direction::East, vc);
  EXPECT_EQ(r.output(Direction::East).credits[static_cast<std::size_t>(vc)],
            small_cfg().vc_depth);
}

TEST(Router, NoCreditNoForwarding) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  // Exhaust all East credits manually.
  auto& port = r.output(Direction::East);
  std::fill(port.credits.begin(), port.credits.end(), 0);
  r.accept_flit(Direction::West, 0, make_flit(4, 7));

  LinkStage out;
  r.step(mesh, out);
  for (const auto& list : out.transfers) EXPECT_TRUE(list.empty());
  for (const auto& list : out.credits) EXPECT_TRUE(list.empty());
  EXPECT_EQ(r.buffered_flits(), 1);
}

TEST(Router, TailFlitReleasesVirtualChannel) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  r.accept_flit(Direction::West, 0, make_flit(4, 7, FlitType::Head));
  r.accept_flit(Direction::West, 0, make_flit(4, 7, FlitType::Tail));

  LinkStage out;
  r.step(mesh, out);  // head departs
  const auto& vc = r.input(Direction::West).vcs[0];
  EXPECT_EQ(vc.state, VirtualChannel::State::Active);
  ASSERT_EQ(out.transfers[LinkStage::kOwn].size(), 1U);
  EXPECT_EQ(out.transfers[LinkStage::kOwn].front().to, 6);
  EXPECT_EQ(out.transfers[LinkStage::kOwn].front().in_dir, Direction::West);

  out.clear();
  r.step(mesh, out);  // tail departs on the same downstream VC
  EXPECT_EQ(vc.state, VirtualChannel::State::Idle);
  EXPECT_FALSE(r.output(Direction::East).vc_in_use[0]);
  ASSERT_EQ(out.transfers[LinkStage::kOwn].size(), 1U);
  EXPECT_EQ(out.transfers[LinkStage::kOwn].front().to, 6);
  EXPECT_EQ(out.transfers[LinkStage::kOwn].front().vc, 0);
  ASSERT_EQ(out.credits[LinkStage::kOwn].size(), 1U);
  EXPECT_EQ(out.credits[LinkStage::kOwn].front().to, 4);
  EXPECT_EQ(out.credits[LinkStage::kOwn].front().out_dir, Direction::East);
}

TEST(Router, OneFlitPerOutputPortPerCycle) {
  const auto mesh = MeshShape::square(4);
  Router r(5, mesh, small_cfg());
  // Two packets from different inputs both heading East.
  r.accept_flit(Direction::West, 0, make_flit(4, 7));
  r.accept_flit(Direction::North, 0, make_flit(9, 7));

  LinkStage out;
  r.step(mesh, out);
  ASSERT_EQ(out.transfers[LinkStage::kOwn].size(), 1U);  // one flit per output per cycle
  EXPECT_EQ(out.transfers[LinkStage::kOwn].front().to, 6);
  EXPECT_EQ(out.transfers[LinkStage::kOwn].front().in_dir, Direction::West);
  ASSERT_EQ(out.credits[LinkStage::kOwn].size(), 1U);
  const NodeId first_upstream = out.credits[LinkStage::kOwn].front().to;

  out.clear();
  r.step(mesh, out);
  ASSERT_EQ(out.transfers[LinkStage::kOwn].size(), 1U);  // the other one follows
  EXPECT_EQ(out.transfers[LinkStage::kOwn].front().to, 6);
  ASSERT_EQ(out.credits[LinkStage::kOwn].size(), 1U);
  // Each input's credit goes to its own upstream: node 4 (West) or 9 (North).
  const NodeId second_upstream = out.credits[LinkStage::kOwn].front().to;
  EXPECT_NE(first_upstream, second_upstream);
  EXPECT_TRUE((first_upstream == 4 && second_upstream == 9) ||
              (first_upstream == 9 && second_upstream == 4));
  EXPECT_EQ(r.buffered_flits(), 0);
}

TEST(Router, RoundRobinDoesNotStarveInputs) {
  const auto mesh = MeshShape::square(4);
  RouterConfig cfg;
  cfg.vcs_per_port = 1;
  cfg.vc_depth = 8;
  Router r(5, mesh, cfg);

  // Keep both competing inputs saturated for several cycles; each must win
  // at least once in any window of a few cycles.
  int west_wins = 0, north_wins = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    if (r.input(Direction::West).vcs[0].buffer.empty()) {
      r.accept_flit(Direction::West, 0, make_flit(4, 7));
    }
    if (r.input(Direction::North).vcs[0].buffer.empty()) {
      r.accept_flit(Direction::North, 0, make_flit(9, 7));
    }
    LinkStage out;
    for (auto& c : r.output(Direction::East).credits) c = cfg.vc_depth;  // refill
    std::fill(r.output(Direction::East).vc_in_use.begin(),
              r.output(Direction::East).vc_in_use.end(), false);
    r.step(mesh, out);
    for (const auto& c : out.credits[LinkStage::kOwn]) {
      // A West win re-credits node 4's East output, a North win node 9's South.
      west_wins += c.to == 4 && c.out_dir == Direction::East ? 1 : 0;
      north_wins += c.to == 9 && c.out_dir == Direction::South ? 1 : 0;
    }
  }
  EXPECT_GE(west_wins, 2);
  EXPECT_GE(north_wins, 2);
}

}  // namespace
}  // namespace dl2f::noc
