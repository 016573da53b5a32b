#include "traffic/parsec.hpp"

#include <gtest/gtest.h>

#include "traffic/simulation.hpp"

namespace dl2f::traffic {
namespace {

TEST(Parsec, Names) {
  EXPECT_EQ(to_string(ParsecWorkload::Blackscholes), "Blackscholes");
  EXPECT_EQ(to_string(ParsecWorkload::Bodytrack), "Bodytrack");
  EXPECT_EQ(to_string(ParsecWorkload::X264), "X264");
}

TEST(Parsec, IntensityOrderingMatchesCharacterization) {
  // blackscholes < bodytrack < x264 in traffic intensity.
  const auto bs = parsec_params(ParsecWorkload::Blackscholes);
  const auto bt = parsec_params(ParsecWorkload::Bodytrack);
  const auto x = parsec_params(ParsecWorkload::X264);
  EXPECT_LT(bs.base_rate, bt.base_rate);
  EXPECT_LT(bt.base_rate, x.base_rate);
  EXPECT_LT(bs.burst_rate, bt.burst_rate);
  EXPECT_LT(bt.burst_rate, x.burst_rate);
}

/// Counts delivered packets per destination node.
struct DestinationCounter final : noc::PacketDeliveryListener {
  std::vector<std::int64_t> delivered = std::vector<std::int64_t>(64, 0);
  void on_packet_delivered(const noc::Flit& tail, noc::Cycle /*now*/) override {
    ++delivered[static_cast<std::size_t>(tail.dst)];
  }
};

TEST(Parsec, MemoryControllersAtCorners) {
  // With every packet a hotspot packet, only the four corner controllers
  // (0, 7, 56, 63 on 8x8) receive traffic, and each of them does.
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  Simulation sim(cfg);
  ParsecParams p = parsec_params(ParsecWorkload::Blackscholes);
  p.hotspot_fraction = 1.0;
  p.neighbor_fraction = 0.0;
  sim.add_generator(std::make_unique<ParsecTraffic>(cfg.shape, p, 1));
  DestinationCounter counter;
  sim.mesh().set_delivery_listener(&counter);
  sim.run(3000);
  sim.run_drain(50000);
  for (NodeId n = 0; n < 64; ++n) {
    const bool corner = n == 0 || n == 7 || n == 56 || n == 63;
    if (corner) {
      EXPECT_GT(counter.delivered[static_cast<std::size_t>(n)], 0) << n;
    } else {
      EXPECT_EQ(counter.delivered[static_cast<std::size_t>(n)], 0) << n;
    }
  }
}

TEST(Parsec, BurstWindowsFollowPhasePeriod) {
  const auto mesh = MeshShape::square(8);
  ParsecParams p;
  p.phase_len = 100;
  p.burst_len = 20;
  const ParsecTraffic gen(mesh, p, 1);
  EXPECT_FALSE(gen.in_burst(0));
  EXPECT_FALSE(gen.in_burst(99));
  EXPECT_TRUE(gen.in_burst(100));
  EXPECT_TRUE(gen.in_burst(119));
  EXPECT_FALSE(gen.in_burst(120));
  EXPECT_TRUE(gen.in_burst(220));  // next period
}

TEST(Parsec, BurstsInjectMoreThanComputePhases) {
  const auto shape = MeshShape::square(8);
  noc::MeshConfig cfg;
  cfg.shape = shape;

  ParsecParams p = parsec_params(ParsecWorkload::X264);
  p.phase_len = 500;
  p.burst_len = 500;

  noc::Mesh mesh(cfg);
  ParsecTraffic gen(shape, p, 7);
  // Compute phase: cycles [0, 500).
  std::int64_t compute_packets = 0;
  for (int c = 0; c < 500; ++c) {
    const auto before = mesh.stats().packets_ejected();
    (void)before;
    gen.tick(mesh);
    mesh.step();
  }
  compute_packets = mesh.stats().packets_ejected() + mesh.flits_in_network() / 5 + 1;
  const auto mid_in_flight = compute_packets;

  // Burst phase: cycles [500, 1000).
  for (int c = 0; c < 500; ++c) {
    gen.tick(mesh);
    mesh.step();
  }
  const auto total = mesh.stats().packets_ejected() + mesh.flits_in_network() / 5;
  EXPECT_GT(total - mid_in_flight, mid_in_flight);
}

class ParsecWorkloadTest : public ::testing::TestWithParam<ParsecWorkload> {};

TEST_P(ParsecWorkloadTest, GeneratesValidDeliverableTraffic) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  Simulation sim(cfg);
  sim.add_generator(std::make_unique<ParsecTraffic>(GetParam(), cfg.shape, 99));
  sim.run(3000);
  sim.run_drain(50000);
  EXPECT_TRUE(sim.mesh().drained());
  EXPECT_GT(sim.mesh().stats().packets_ejected(), 10);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ParsecWorkloadTest,
                         ::testing::ValuesIn(kAllParsecWorkloads));

TEST(Parsec, DeterministicAcrossRuns) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  const auto run_once = [&] {
    Simulation sim(cfg);
    sim.add_generator(
        std::make_unique<ParsecTraffic>(ParsecWorkload::Bodytrack, cfg.shape, 1234));
    sim.run(2000);
    return sim.mesh().stats().packets_ejected();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace dl2f::traffic
