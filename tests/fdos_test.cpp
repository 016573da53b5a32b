#include "traffic/fdos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "traffic/simulation.hpp"

namespace dl2f::traffic {
namespace {

TEST(AttackScenario, GroundTruthVictimsAreTheXyRouteMinusAttacker) {
  const auto mesh = MeshShape::square(4);
  AttackScenario s;
  s.attackers = {0};
  s.victim = 15;
  const auto victims = s.ground_truth_victims(mesh);
  // Route 0 -> 1 -> 2 -> 3 -> 7 -> 11 -> 15; attacker 0 excluded.
  const std::vector<NodeId> expected{1, 2, 3, 7, 11, 15};
  EXPECT_EQ(victims, expected);
}

TEST(AttackScenario, TwoAttackersUnionVictims) {
  const auto mesh = MeshShape::square(4);
  AttackScenario s;
  s.attackers = {0, 15};
  s.victim = 5;
  const auto victims = s.ground_truth_victims(mesh);
  // 0 -> 1 -> 5 and 15 -> 14 -> 13 -> 9 -> 5.
  const std::vector<NodeId> expected{1, 5, 9, 13, 14};
  EXPECT_EQ(victims, expected);
}

TEST(AttackScenario, GroundTruthPortsFollowFlowDirections) {
  const auto mesh = MeshShape::square(4);
  AttackScenario s;
  s.attackers = {0};
  s.victim = 10;  // (2,2): route 0 -> 1 -> 2 -> 6 -> 10
  const auto ports = s.ground_truth_ports(mesh);
  // Eastward X-phase: nodes 1, 2 receive on West inputs; northward
  // Y-phase: nodes 6, 10 receive on South inputs.
  const std::vector<std::pair<NodeId, Direction>> expected{
      {1, Direction::West}, {2, Direction::West}, {6, Direction::South},
      {10, Direction::South}};
  auto sorted = ports;
  std::sort(sorted.begin(), sorted.end());
  auto exp = expected;
  std::sort(exp.begin(), exp.end());
  EXPECT_EQ(sorted, exp);
}

TEST(FloodingAttack, FirControlsInjectionVolume) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  AttackScenario s;
  s.attackers = {0};
  s.victim = 63;

  for (const double fir : {0.2, 0.8}) {
    s.fir = fir;
    noc::Mesh mesh(cfg);
    FloodingAttack attack(s, 5);
    constexpr int kCycles = 4000;
    for (int c = 0; c < kCycles; ++c) {
      attack.tick(mesh);
      mesh.step();
    }
    std::int64_t spare = 100000;
    while (!mesh.drained() && spare-- > 0) mesh.step();
    ASSERT_TRUE(mesh.drained());
    const auto injected = mesh.stats().packets_ejected();
    EXPECT_NEAR(static_cast<double>(injected) / kCycles, fir, 0.05) << "fir " << fir;
  }
}

TEST(FloodingAttack, SetFirRetunesInjectionVolumeMidRun) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  noc::Mesh mesh(cfg);
  AttackScenario s;
  s.attackers = {0};
  s.victim = 63;
  s.fir = 0.1;
  FloodingAttack attack(s, 5);

  const auto run_span = [&](int cycles) {
    const auto before = mesh.stats().packets_ejected();
    for (int c = 0; c < cycles; ++c) {
      attack.tick(mesh);
      mesh.step();
    }
    std::int64_t spare = 100000;
    while (!mesh.drained() && spare-- > 0) mesh.step();
    return mesh.stats().packets_ejected() - before;
  };

  const auto low = run_span(2000);
  attack.set_fir(0.8);
  const auto high = run_span(2000);
  EXPECT_NEAR(static_cast<double>(low) / 2000, 0.1, 0.03);
  EXPECT_NEAR(static_cast<double>(high) / 2000, 0.8, 0.05);
}

TEST(FloodingAttack, InactiveInjectsNothing) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(4);
  noc::Mesh mesh(cfg);
  AttackScenario s;
  s.attackers = {0};
  s.victim = 15;
  FloodingAttack attack(s, 5);
  attack.set_active(false);
  for (int c = 0; c < 100; ++c) {
    attack.tick(mesh);
    mesh.step();
  }
  EXPECT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().packets_ejected(), 0);
}

TEST(FloodingAttack, FloodingPacketsAreSingleFlit) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(4);
  cfg.packet_length_flits = 5;  // benign default
  noc::Mesh mesh(cfg);
  AttackScenario s;
  s.attackers = {0};
  s.victim = 3;
  s.fir = 1.0;
  FloodingAttack attack(s, 5);
  for (int c = 0; c < 50; ++c) {
    attack.tick(mesh);
    mesh.step();
  }
  std::int64_t spare = 10000;
  while (!mesh.drained() && spare-- > 0) mesh.step();
  ASSERT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().flits_ejected(), mesh.stats().packets_ejected());
}

TEST(MakeScenarios, RespectsCountAndAttackerNumber) {
  const auto mesh = MeshShape::square(16);
  const auto scenarios = make_scenarios(mesh, 10, 2, 0.8, 42);
  ASSERT_EQ(scenarios.size(), 10U);
  for (const auto& s : scenarios) {
    EXPECT_EQ(s.attackers.size(), 2U);
    EXPECT_DOUBLE_EQ(s.fir, 0.8);
    EXPECT_TRUE(mesh.valid(s.victim));
    for (NodeId a : s.attackers) {
      EXPECT_TRUE(mesh.valid(a));
      EXPECT_NE(a, s.victim);
      EXPECT_GE(mesh.hop_distance(a, s.victim), 2);
    }
    EXPECT_NE(s.attackers[0], s.attackers[1]);
  }
}

TEST(MakeScenarios, ThrowsOnMeshesWithNoValidPlacement) {
  // A 1x2 mesh has a maximum hop distance of 1, so the ">= 2 hops from
  // the victim" constraint can never be met; the generator must fail
  // loudly instead of spinning forever.
  EXPECT_THROW(make_scenarios(MeshShape(1, 2), 1, 1, 0.8, 7), std::invalid_argument);
  // A 2x2 mesh has exactly one node 2 hops from any victim, so two
  // distinct attackers can never be placed.
  EXPECT_THROW(make_scenarios(MeshShape::square(2), 1, 2, 0.8, 7), std::invalid_argument);
}

TEST(MakeScenarios, RejectsNoAttackersAndNonProbabilityFirs) {
  // Checked in every build type: zero attackers would flood nothing while
  // a scenario schedule reports the attack on, and a FIR outside [0, 1]
  // would be clamped silently by the Bernoulli trial.
  const auto mesh = MeshShape::square(8);
  EXPECT_THROW((void)make_scenarios(mesh, 1, 0, 0.8, 7), std::invalid_argument);
  for (const double fir : {-0.1, 1.5, std::nan("")}) {
    EXPECT_THROW((void)make_scenarios(mesh, 1, 1, fir, 7), std::invalid_argument) << fir;
  }
  EXPECT_EQ(make_scenarios(mesh, 1, 1, 1.0, 7).size(), 1U);
  EXPECT_EQ(make_scenarios(mesh, 1, 1, 0.0, 7).size(), 1U);
}

TEST(FloodingAttack, RejectsNoAttackersAndNonProbabilityFirs) {
  AttackScenario none;
  none.victim = 36;
  EXPECT_THROW(FloodingAttack(none, 1), std::invalid_argument);
  for (const double fir : {-0.1, 1.5, std::nan("")}) {
    AttackScenario s;
    s.attackers = {0};
    s.victim = 36;
    s.fir = fir;
    EXPECT_THROW(FloodingAttack(s, 1), std::invalid_argument) << fir;
  }
}

TEST(FloodingAttack, AttackerOutsideTheMeshThrowsOnTick) {
  // The constructor cannot know the mesh; the first injection into an
  // 8x8 mesh from node 100 must throw instead of indexing past its
  // per-node arrays.
  AttackScenario s;
  s.attackers = {100};
  s.victim = 36;
  s.fir = 1.0;
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  Simulation sim(cfg);
  sim.emplace_generator<FloodingAttack>(s, 1);
  EXPECT_THROW(sim.step(), std::invalid_argument);
}

TEST(MakeScenarios, DegenerateMeshStillServesFeasibleRequests) {
  // count == 0 asks for nothing and must not probe placements at all.
  EXPECT_TRUE(make_scenarios(MeshShape(1, 2), 0, 1, 0.8, 7).empty());
  // One attacker on a 2x2 mesh is feasible (the diagonal), even though
  // two are not.
  const auto scenarios = make_scenarios(MeshShape::square(2), 4, 1, 0.8, 7);
  ASSERT_EQ(scenarios.size(), 4U);
  for (const auto& s : scenarios) {
    EXPECT_EQ(MeshShape::square(2).hop_distance(s.attackers[0], s.victim), 2);
  }
}

TEST(MakeScenarios, DeterministicForSeed) {
  const auto mesh = MeshShape::square(8);
  const auto a = make_scenarios(mesh, 5, 1, 0.8, 7);
  const auto b = make_scenarios(mesh, 5, 1, 0.8, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].attackers, b[i].attackers);
    EXPECT_EQ(a[i].victim, b[i].victim);
  }
}

TEST(FloodingOverlay, DegradesBenignLatencyWithoutStoppingIt) {
  // §2.3: flooding overlays normal traffic; benign communication slows but
  // is never halted.
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  cfg.packet_length_flits = 5;

  const auto run = [&](bool with_attack) {
    Simulation sim(cfg);
    sim.add_generator(std::make_unique<SyntheticTraffic>(
        SyntheticPattern::UniformRandom, 0.01, 3));
    if (with_attack) {
      AttackScenario s;
      s.attackers = {0};
      s.victim = 36;
      s.fir = 0.8;
      sim.add_generator(std::make_unique<FloodingAttack>(s, 9));
    }
    sim.run(5000);
    return sim.mesh().stats();
  };

  const auto benign = run(false);
  const auto attacked = run(true);
  EXPECT_GT(attacked.avg_packet_latency(), benign.avg_packet_latency());
  // Benign traffic still flows: far more packets complete than the attack
  // alone would account for.
  EXPECT_GT(attacked.packets_ejected(), benign.packets_ejected() / 2);
}

}  // namespace
}  // namespace dl2f::traffic
