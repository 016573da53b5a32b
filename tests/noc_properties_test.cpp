// Property tests on the NoC substrate: conservation (every injected flit is
// eventually ejected, none duplicated), credit conservation on every link,
// deadlock freedom under XY routing, and monotone congestion behaviour —
// the invariants the feature frames' semantics rest on.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "noc/mesh.hpp"
#include "traffic/fdos.hpp"
#include "traffic/generator.hpp"
#include "traffic/simulation.hpp"

namespace dl2f {
namespace {

struct PropertyCase {
  std::int32_t mesh_size;
  std::int32_t packet_len;
  double rate;
};

class ConservationTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ConservationTest, AllInjectedPacketsAreEjectedExactlyOnce) {
  const auto p = GetParam();
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(p.mesh_size);
  cfg.packet_length_flits = p.packet_len;
  noc::Mesh mesh(cfg);

  Rng rng(2024);
  std::int64_t injected = 0;
  for (std::int64_t cycle = 0; cycle < 600; ++cycle) {
    for (NodeId n = 0; n < cfg.shape.node_count(); ++n) {
      if (rng.bernoulli(BernoulliP(p.rate))) {
        auto dst = static_cast<NodeId>(rng.uniform_int(0, cfg.shape.node_count() - 1));
        mesh.inject(n, dst);
        ++injected;
      }
    }
    mesh.step();
  }
  // Drain with generous headroom; XY + credit flow control is deadlock-free.
  std::int64_t spare = 200000;
  while (!mesh.drained() && spare-- > 0) mesh.step();

  EXPECT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().packets_ejected(), injected);
  EXPECT_EQ(mesh.stats().flits_ejected(), injected * p.packet_len);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConservationTest,
    ::testing::Values(PropertyCase{2, 1, 0.1}, PropertyCase{4, 1, 0.05},
                      PropertyCase{4, 5, 0.02}, PropertyCase{8, 5, 0.01},
                      PropertyCase{8, 3, 0.05}, PropertyCase{16, 5, 0.005}));

struct StepConfig {
  std::int32_t shards;
  std::int32_t threads;
};

class CreditConservationTest : public ::testing::TestWithParam<StepConfig> {};

TEST_P(CreditConservationTest, EveryLinkHoldsDepthMinusDownstreamOccupancy) {
  // After every step, each output VC's credits plus the flits buffered in
  // the VC it feeds must equal vc_depth: a lost, duplicated or misaddressed
  // flit or credit — at a band edge or inside one — breaks it on the spot.
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  cfg.shards = GetParam().shards;
  cfg.step_threads = GetParam().threads;
  traffic::Simulation sim(cfg);
  ASSERT_EQ(sim.mesh().shard_count(), GetParam().shards);
  sim.add_generator(std::make_unique<traffic::SyntheticTraffic>(
      traffic::SyntheticPattern::UniformRandom, 0.05, 41));
  sim.add_generator(std::make_unique<traffic::FloodingAttack>(
      traffic::make_scenarios(cfg.shape, 1, 2, 0.9, 42).front(), 43));

  const std::int32_t depth = cfg.router.vc_depth;
  std::int64_t checks = 0;
  std::int64_t violations = 0;
  for (int cycle = 0; cycle < 3000; ++cycle) {
    sim.step();
    noc::Mesh& mesh = sim.mesh();
    for (NodeId u = 0; u < cfg.shape.node_count(); ++u) {
      for (const Direction d : kMeshDirections) {
        const auto v_id = cfg.shape.neighbor(u, d);
        if (!v_id) continue;
        const auto& out = mesh.router(u).output(d);
        const auto& in = mesh.router(*v_id).input(opposite(d));
        for (std::size_t vc = 0; vc < in.vcs.size(); ++vc) {
          ++checks;
          if (out.credits[vc] != depth - in.vcs[vc].buffer.size()) {
            ADD_FAILURE() << "cycle " << cycle << " link " << u << " -> " << *v_id << " vc "
                          << vc << ": credits " << out.credits[vc] << ", buffered "
                          << in.vcs[vc].buffer.size();
            if (++violations >= 5) return;
          }
        }
      }
    }
  }
  // 224 directed links x 4 VCs x 3000 cycles, and the flood really flowed.
  EXPECT_EQ(checks, 2'688'000);
  EXPECT_GT(sim.mesh().stats().packets_ejected(), 0);
}

INSTANTIATE_TEST_SUITE_P(ShardsAndThreads, CreditConservationTest,
                         ::testing::Values(StepConfig{1, 1}, StepConfig{2, 1}, StepConfig{2, 2},
                                           StepConfig{3, 2}),
                         [](const ::testing::TestParamInfo<StepConfig>& info) {
                           return "shards" + std::to_string(info.param.shards) + "_threads" +
                                  std::to_string(info.param.threads);
                         });

class PatternConservationTest : public ::testing::TestWithParam<traffic::SyntheticPattern> {};

TEST_P(PatternConservationTest, SyntheticPatternsConserveTraffic) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  cfg.packet_length_flits = 5;
  traffic::Simulation sim(cfg);
  sim.add_generator(std::make_unique<traffic::SyntheticTraffic>(GetParam(), 0.01, 55));
  sim.run(500);
  sim.run_drain(100000);
  EXPECT_TRUE(sim.mesh().drained());
  EXPECT_GT(sim.mesh().stats().packets_ejected(), 0);
  EXPECT_EQ(sim.mesh().stats().flits_ejected(), sim.mesh().stats().packets_ejected() * 5);
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, PatternConservationTest,
                         ::testing::ValuesIn(traffic::kAllSyntheticPatterns));

TEST(CongestionMonotonicity, LatencyIncreasesWithInjectionRate) {
  double previous = 0.0;
  for (const double rate : {0.005, 0.02, 0.05}) {
    noc::MeshConfig cfg;
    cfg.shape = MeshShape::square(8);
    cfg.packet_length_flits = 5;
    traffic::Simulation sim(cfg);
    sim.add_generator(std::make_unique<traffic::SyntheticTraffic>(
        traffic::SyntheticPattern::UniformRandom, rate, 77));
    sim.run(3000);
    const double latency = sim.mesh().stats().avg_packet_latency();
    EXPECT_GT(latency, previous);
    previous = latency;
  }
}

TEST(VcoBounds, OccupancyAlwaysWithinUnitInterval) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  traffic::Simulation sim(cfg);
  sim.add_generator(std::make_unique<traffic::SyntheticTraffic>(
      traffic::SyntheticPattern::BitComplement, 0.05, 31));
  for (int step = 0; step < 500; ++step) {
    sim.step();
    for (NodeId n = 0; n < cfg.shape.node_count(); ++n) {
      for (Direction d : kMeshDirections) {
        const double occ = sim.mesh().router(n).input(d).vc_occupancy();
        ASSERT_GE(occ, 0.0);
        ASSERT_LE(occ, 1.0);
      }
    }
  }
}

TEST(TelemetryBalance, ReadsNeverExceedWrites) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  traffic::Simulation sim(cfg);
  sim.add_generator(std::make_unique<traffic::SyntheticTraffic>(
      traffic::SyntheticPattern::UniformRandom, 0.03, 13));
  sim.run(1000);
  for (NodeId n = 0; n < cfg.shape.node_count(); ++n) {
    for (Direction d : kMeshDirections) {
      const auto& t = sim.mesh().router(n).input(d).telemetry;
      EXPECT_LE(t.buffer_reads, t.buffer_writes);
    }
  }
  // After draining, every buffered flit has been read back out.
  sim.run_drain(100000);
  ASSERT_TRUE(sim.mesh().drained());
}

}  // namespace
}  // namespace dl2f
