// Evasive attacker behaviors: pulse schedule periodicity,
// colluding aggregate-rate invariant, mimicry destination distribution.
#include "traffic/fdos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "traffic/simulation.hpp"

namespace dl2f::traffic {
namespace {

constexpr MeshShape kMesh = MeshShape::square(8);

AttackScenario corner_scenario(double fir) {
  AttackScenario s;
  s.attackers = {0, 7};
  s.victim = 36;  // center-ish of the 8x8 mesh, >= 2 hops from both corners
  s.fir = fir;
  return s;
}

std::int64_t malicious_ejected(traffic::Simulation& sim) {
  return sim.mesh().stats().packets_ejected() - sim.mesh().benign_stats().packets_ejected();
}

TEST(PulseSchedule, IsPeriodic) {
  PulseSchedule sched;
  sched.start = 100;
  sched.period = 200;
  sched.duty = 0.25;

  EXPECT_FALSE(sched.on(0));
  EXPECT_FALSE(sched.on(99));  // before start: always off
  // One full period starting at `start`: on for duty*period, then off.
  EXPECT_TRUE(sched.on(100));
  EXPECT_TRUE(sched.on(149));
  EXPECT_FALSE(sched.on(150));
  EXPECT_FALSE(sched.on(299));
  // Exactly periodic: shifting by any multiple of the period is identity.
  for (noc::Cycle at = 100; at < 500; ++at) {
    EXPECT_EQ(sched.on(at), sched.on(at + 3 * sched.period)) << at;
  }
}

TEST(PulseSchedule, DutyZeroNeverOnDutyOneAlwaysOn) {
  PulseSchedule sched;
  sched.period = 100;
  sched.duty = 0.0;
  for (noc::Cycle at = 0; at < 300; ++at) EXPECT_FALSE(sched.on(at));
  sched.duty = 1.0;
  for (noc::Cycle at = 0; at < 300; ++at) EXPECT_TRUE(sched.on(at));
}

TEST(Colluding, AggregateRateIsInvariantInColluderCount) {
  const double aggregate = 0.9;
  for (const std::int32_t k : {2, 3, 6, 9}) {
    const AttackScenario s = make_colluding_scenario(kMesh, k, aggregate, /*seed=*/5);
    ASSERT_EQ(static_cast<std::int32_t>(s.attackers.size()), k);
    // Distinct sources, each >= 2 hops from the shared victim.
    const std::set<NodeId> distinct(s.attackers.begin(), s.attackers.end());
    EXPECT_EQ(distinct.size(), s.attackers.size());
    for (const NodeId a : s.attackers) EXPECT_GE(kMesh.hop_distance(a, s.victim), 2);
    // The invariant: per-attacker FIR is exactly the aggregate split k
    // ways — no single source floods harder than aggregate/k.
    EXPECT_DOUBLE_EQ(s.fir, aggregate / static_cast<double>(k));
    EXPECT_NEAR(s.fir * static_cast<double>(k), aggregate, 1e-12);
  }
}

TEST(Colluding, RejectsNonProbabilityAggregatesInEveryBuildType) {
  // An aggregate above the colluder count would make each source's FIR
  // exceed 1; that must throw (not assert) so Release builds fail loudly.
  EXPECT_THROW((void)make_colluding_scenario(kMesh, 3, 4.0, 1), std::invalid_argument);
  EXPECT_THROW((void)make_colluding_scenario(kMesh, 2, -0.1, 1), std::invalid_argument);
  EXPECT_THROW((void)make_colluding_scenario(kMesh, 0, 0.5, 1), std::invalid_argument);
  // The boundary aggregate == colluders (every source at FIR 1.0) is legal.
  EXPECT_NO_THROW((void)make_colluding_scenario(kMesh, 2, 2.0, 1));
}

TEST(Colluding, SimulatedAggregateMatchesExpectation) {
  // 6 colluders at 0.15 each and 2 at 0.45 each deliver the same expected
  // malicious volume; check both land near 0.9 packets/cycle.
  for (const std::int32_t k : {2, 6}) {
    noc::MeshConfig cfg;
    cfg.shape = kMesh;
    traffic::Simulation sim(cfg);
    sim.emplace_generator<FloodingAttack>(make_colluding_scenario(kMesh, k, 0.9, /*seed=*/7),
                                          /*seed=*/11);
    const noc::Cycle cycles = 4000;
    sim.run(cycles);
    sim.run_drain(2000);
    const double rate = static_cast<double>(malicious_ejected(sim)) / cycles;
    EXPECT_NEAR(rate, 0.9, 0.08) << "colluders=" << k;
  }
}

/// The (src, dst) of every delivered malicious packet, in delivery order.
class MaliciousDeliveries final : public noc::PacketDeliveryListener {
 public:
  void on_packet_delivered(const noc::Flit& tail, noc::Cycle /*now*/) override {
    if (tail.malicious) packets.emplace_back(tail.src, tail.dst);
  }
  std::vector<std::pair<NodeId, NodeId>> packets;
};

/// Mimicry flood from `attackers` for `cycles` cycles, drained.
std::vector<std::pair<NodeId, NodeId>> mimic_deliveries(std::vector<NodeId> attackers,
                                                        SyntheticPattern pattern, double fir,
                                                        noc::Cycle cycles, std::uint64_t seed) {
  noc::MeshConfig cfg;
  cfg.shape = kMesh;
  traffic::Simulation sim(cfg);
  MaliciousDeliveries log;
  sim.mesh().set_delivery_listener(&log);
  AttackScenario s = corner_scenario(fir);
  s.attackers = std::move(attackers);  // the victim goes unused under mimicry
  sim.emplace_generator<FloodingAttack>(s, seed, pattern);
  sim.run(cycles);
  sim.run_drain(4000);
  EXPECT_TRUE(sim.mesh().drained());
  return log.packets;
}

TEST(Mimicry, DeterministicPatternsFollowTheBenignDestinationMap) {
  // For the deterministic patterns every delivered attack packet must
  // target the exact benign pattern map of its source — that is the
  // mimicry — and, like the benign generator, never the source itself.
  for (const SyntheticPattern p :
       {SyntheticPattern::Tornado, SyntheticPattern::Shuffle, SyntheticPattern::Neighbor,
        SyntheticPattern::BitRotation, SyntheticPattern::BitComplement}) {
    const auto delivered = mimic_deliveries({0, 9, 27}, p, 0.5, 400, /*seed=*/3);
    EXPECT_FALSE(delivered.empty()) << to_string(p);
    Rng probe(0);  // deterministic patterns never touch the RNG
    for (const auto& [src, dst] : delivered) {
      EXPECT_NE(dst, src) << to_string(p);
      EXPECT_EQ(dst, pattern_destination(p, kMesh, src, probe)) << to_string(p) << " src=" << src;
    }
  }
}

TEST(Mimicry, UniformRandomSpreadsDestinationsAndSkipsSelf) {
  const auto delivered =
      mimic_deliveries({5}, SyntheticPattern::UniformRandom, 1.0, 512, /*seed=*/17);
  std::set<NodeId> seen;
  for (const auto& [src, dst] : delivered) {
    EXPECT_EQ(src, 5);
    EXPECT_NE(dst, 5);
    EXPECT_TRUE(kMesh.valid(dst));
    seen.insert(dst);
  }
  // ~512 packets over 63 candidates: essentially every destination appears.
  EXPECT_GT(seen.size(), 50U);
}

TEST(Mimicry, TickInjectsMaliciousVolumeAtTheConfiguredRate) {
  noc::MeshConfig cfg;
  cfg.shape = kMesh;
  traffic::Simulation sim(cfg);
  AttackScenario s = corner_scenario(0.4);
  s.attackers = {0, 7, 56};
  sim.emplace_generator<FloodingAttack>(s, /*seed=*/23, SyntheticPattern::Tornado);
  const noc::Cycle cycles = 4000;
  sim.run(cycles);
  sim.run_drain(2000);
  const double rate = static_cast<double>(malicious_ejected(sim)) / cycles;
  EXPECT_NEAR(rate, 3 * 0.4, 0.12);
}

TEST(StealthRamp, ClimbsToTheCeilingAndHolds) {
  StealthRamp ramp;
  ramp.start = 1000;
  ramp.ramp_cycles = 4000;
  ramp.start_fir = 0.05;
  ramp.ceiling = 0.3;

  EXPECT_DOUBLE_EQ(ramp.fir_at(0), 0.0);
  EXPECT_DOUBLE_EQ(ramp.fir_at(999), 0.0);
  EXPECT_DOUBLE_EQ(ramp.fir_at(1000), 0.05);
  EXPECT_DOUBLE_EQ(ramp.fir_at(3000), 0.05 + (0.3 - 0.05) * 0.5);
  EXPECT_DOUBLE_EQ(ramp.fir_at(5000), 0.3);
  // Sub-threshold forever: the ceiling is never exceeded.
  for (noc::Cycle at = 0; at < 20000; at += 100) EXPECT_LE(ramp.fir_at(at), 0.3);
}

}  // namespace
}  // namespace dl2f::traffic
