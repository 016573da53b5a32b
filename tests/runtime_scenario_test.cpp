#include "runtime/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "traffic/simulation.hpp"

namespace dl2f::runtime {
namespace {

ScenarioParams small_params() {
  ScenarioParams p;
  p.mesh = MeshShape::square(8);
  p.num_attackers = 2;
  p.attack_start = 1000;
  return p;
}

/// Cycles a square wave of `period` cycles spends on per period:
/// PulseSchedule::on holds while the offset into the period is below
/// duty * period.
noc::Cycle on_cycles(noc::Cycle period, double duty) {
  return static_cast<noc::Cycle>(std::ceil(duty * static_cast<double>(period)));
}

TEST(ScenarioRegistry, RoundTripsEveryBuiltinFamilyName) {
  auto& registry = ScenarioRegistry::instance();
  EXPECT_EQ(all_scenario_families().size(), 9U);
  EXPECT_EQ(all_scenario_families().size(),
            builtin_scenario_families().size() + evasive_scenario_families().size());
  for (const auto& family : all_scenario_families()) {
    ASSERT_TRUE(registry.contains(family)) << family;
    const auto scenario = registry.make(family, small_params(), /*seed=*/42);
    ASSERT_NE(scenario, nullptr) << family;
    EXPECT_FALSE(scenario->all_attackers().empty()) << family;
  }
}

TEST(ScenarioRegistry, UnknownFamilyIsAbsent) {
  auto& registry = ScenarioRegistry::instance();
  EXPECT_FALSE(registry.contains("no-such-family"));
  EXPECT_EQ(registry.make("no-such-family", small_params(), 1), nullptr);
}

TEST(ScenarioRegistry, SameSeedSamePlacement) {
  auto& registry = ScenarioRegistry::instance();
  for (const auto& family : all_scenario_families()) {
    const auto a = registry.make(family, small_params(), 9);
    const auto b = registry.make(family, small_params(), 9);
    EXPECT_EQ(a->all_attackers(), b->all_attackers()) << family;
  }
}

TEST(ScenarioRegistry, InfeasiblePlacementDegradesInsteadOfSpinning) {
  // A 2x2 mesh holds one node >= 2 hops from a lone attacker, so a sweep
  // finds no further victims, and a 3x3 mesh cannot host 12 distinct
  // attacker placements; construction must still terminate with however
  // many legs fit.
  ScenarioParams p;
  p.mesh = MeshShape::square(2);
  p.num_attackers = 1;
  const auto sweep = ScenarioRegistry::instance().make("victim-sweep", p, 1);
  ASSERT_NE(sweep, nullptr);
  EXPECT_EQ(sweep->all_attackers().size(), 1U);

  p.mesh = MeshShape::square(3);
  p.num_attackers = 12;  // more attackers than the mesh has nodes
  const auto multi = ScenarioRegistry::instance().make("multi-victim", p, 1);
  ASSERT_NE(multi, nullptr);
  EXPECT_FALSE(multi->all_attackers().empty());
  EXPECT_LE(multi->all_attackers().size(), 9U);
}

TEST(ScenarioRegistry, RejectsDegenerateSchedules) {
  // No attackers would flood nothing while attack_active() reports the
  // attack on; a FIR outside [0, 1] would be clamped silently.
  const auto& registry = ScenarioRegistry::instance();
  const auto rejects = [&](const char* family, auto mutate) {
    ScenarioParams p = small_params();
    mutate(p);
    EXPECT_THROW((void)registry.make(family, p, 1), std::invalid_argument) << family;
  };
  for (const auto& family : all_scenario_families()) {
    if (family == "colluding") continue;  // places kColluders, not num_attackers
    rejects(family.c_str(), [](ScenarioParams& p) { p.num_attackers = 0; });
  }
  rejects("static", [](ScenarioParams& p) { p.fir = 1.5; });
  rejects("multi-victim", [](ScenarioParams& p) { p.fir = -0.1; });
  rejects("pulse", [](ScenarioParams& p) { p.fir = std::nan(""); });

  // Boundary values are legal, and a family ignores the fields it does not
  // use: stealth-ramp, colluding and mimicry flood at their own constants.
  ScenarioParams edge = small_params();
  edge.fir = 1.0;
  EXPECT_NO_THROW((void)registry.make("transient", edge, 1));
  edge.fir = 0.0;
  EXPECT_NO_THROW((void)registry.make("ramp", edge, 1));
  edge.fir = 2.0;
  EXPECT_NO_THROW((void)registry.make("stealth-ramp", edge, 1));
  EXPECT_NO_THROW((void)registry.make("mimicry", edge, 1));
  edge.num_attackers = 0;
  EXPECT_NO_THROW((void)registry.make("colluding", edge, 1));
}

TEST(ScenarioInstall, RefusesASecondInstall) {
  // A second install would add a second benign generator and a second set
  // of attack legs.
  const auto s = ScenarioRegistry::instance().make("static", small_params(), 3);
  noc::MeshConfig cfg;
  cfg.shape = small_params().mesh;
  traffic::Simulation sim(cfg);
  s->install(sim, 1);
  const std::size_t generators = sim.generators().size();
  EXPECT_THROW(s->install(sim, 1), std::logic_error);
  EXPECT_EQ(sim.generators().size(), generators);
}

TEST(ScenarioInstall, RefusesASimulationOfAnotherMesh) {
  // A 16x16 scenario on an 8x8 simulation would inject from node ids the
  // mesh does not have.
  ScenarioParams p = small_params();
  p.mesh = MeshShape::square(16);
  const auto s = ScenarioRegistry::instance().make("static", p, 3);
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  traffic::Simulation sim(cfg);
  EXPECT_THROW(s->install(sim, 1), std::invalid_argument);
  EXPECT_TRUE(sim.generators().empty());
}

TEST(ScenarioSchedule, AttackersFloodTogetherAndAdvanceReportsTheSpan) {
  // The single schedule's invariant: at every cycle a scenario's attackers
  // are all on or all off, and advance() returns exactly the attackers
  // that flooded during the span it stepped: every unfenced one if the
  // attack was on at some cycle of it, nobody otherwise. The first
  // attacker is fenced from cycle 2000 on.
  for (const auto& family : all_scenario_families()) {
    const ScenarioParams p = small_params();  // attack_start = 1000
    const auto s = ScenarioRegistry::instance().make(family, p, 5);
    noc::MeshConfig cfg;
    cfg.shape = p.mesh;
    traffic::Simulation sim(cfg);
    s->install(sim, 11);
    ASSERT_GE(s->all_attackers().size(), 2U) << family;
    for (noc::Cycle from = 0; from < 3000; from += 500) {
      std::vector<NodeId> unfenced = s->all_attackers();
      if (from == 2000) sim.mesh().set_quarantined(unfenced.front(), true);
      if (from >= 2000) unfenced.erase(unfenced.begin());
      bool on = false;
      for (noc::Cycle t = from; t < from + 500; ++t) {
        const auto active = s->active_attackers(t);
        EXPECT_TRUE(active.empty() || active == s->all_attackers()) << family << " t=" << t;
        on = on || s->attack_active(t);
      }
      EXPECT_EQ(s->advance(sim, 500), on ? unfenced : std::vector<NodeId>{})
          << family << " span from " << from;
      EXPECT_EQ(sim.mesh().now(), from + 500);
    }
  }
}

TEST(StaticScenario, ActivatesAtAttackStart) {
  const auto s = ScenarioRegistry::instance().make("static", small_params(), 3);
  EXPECT_TRUE(s->active_attackers(0).empty());
  EXPECT_TRUE(s->active_attackers(999).empty());
  EXPECT_EQ(s->active_attackers(1000).size(), 2U);
  EXPECT_EQ(s->active_attackers(50'000).size(), 2U);
}

TEST(TransientScenario, FollowsTheSquareWave) {
  ScenarioParams p = small_params();
  p.attack_start = 0;
  const auto s = ScenarioRegistry::instance().make("transient", p, 3);
  const noc::Cycle on = on_cycles(kBurstPeriod, kBurstDuty);  // 1000 of 2000
  EXPECT_FALSE(s->active_attackers(0).empty());    // on-phase
  EXPECT_FALSE(s->active_attackers(on - 1).empty());
  EXPECT_TRUE(s->active_attackers(on).empty());    // off-phase
  EXPECT_TRUE(s->active_attackers(kBurstPeriod - 1).empty());
  EXPECT_FALSE(s->active_attackers(kBurstPeriod).empty());  // next burst
}

TEST(MultiVictimScenario, UsesDistinctAttackerNodes) {
  ScenarioParams p = small_params();
  p.num_attackers = 3;
  const auto s = ScenarioRegistry::instance().make("multi-victim", p, 5);
  const auto attackers = s->all_attackers();
  EXPECT_EQ(attackers.size(), 3U);  // all_attackers() deduplicates
  EXPECT_EQ(s->active_attackers(p.attack_start), attackers);
}

TEST(ScenarioDynamics, TransientBurstsRaiseAndLowerTrafficVolume) {
  // The benign background runs throughout, so compare equal-length spans:
  // the last 300 cycles of each on-phase carry flooding on top of the
  // benign volume, the last 300 of the off-phase (after the flood drained)
  // carry benign volume only.
  ScenarioParams p = small_params();
  p.attack_start = 0;
  const auto s = ScenarioRegistry::instance().make("transient", p, 11);
  const noc::Cycle on = on_cycles(kBurstPeriod, kBurstDuty);  // 1000 of 2000

  noc::MeshConfig cfg;
  cfg.shape = p.mesh;
  traffic::Simulation sim(cfg);
  s->install(sim, 21);

  const auto step_to = [&](noc::Cycle to) {
    while (sim.mesh().now() < to) {
      s->on_cycle(sim.mesh().now());
      sim.step();
    }
  };
  // Ejections over the 300 cycles that end at cycle `to`.
  const auto volume_before = [&](noc::Cycle to) {
    step_to(to - 300);
    const auto before = sim.mesh().stats().packets_ejected();
    step_to(to);
    return sim.mesh().stats().packets_ejected() - before;
  };

  const auto burst1 = volume_before(on);
  const auto quiet = volume_before(kBurstPeriod);
  const auto burst2 = volume_before(kBurstPeriod + on);
  EXPECT_GT(burst1, quiet);
  EXPECT_GT(burst2, quiet);
}

TEST(VictimSweepScenario, KeepsFloodingAcrossRetargets) {
  ScenarioParams p = small_params();
  p.attack_start = 0;
  const auto s = ScenarioRegistry::instance().make("victim-sweep", p, 13);

  noc::MeshConfig cfg;
  cfg.shape = p.mesh;
  traffic::Simulation sim(cfg);
  s->install(sim, 17);
  const noc::Cycle sweep = kSweepVictims * kSweepPeriod;
  for (noc::Cycle c = 0; c < sweep; ++c) {
    s->on_cycle(sim.mesh().now());
    sim.step();
  }
  // Attackers stayed active through every sweep leg.
  EXPECT_GT(sim.mesh().stats().packets_ejected(), sweep);
  EXPECT_EQ(s->active_attackers(sweep).size(), 2U);
}

TEST(RampScenario, StartsQuietAndReachesFullRate) {
  ScenarioParams p = small_params();
  p.attack_start = 100;
  p.fir = 0.9;
  const auto s = ScenarioRegistry::instance().make("ramp", p, 19);
  EXPECT_TRUE(s->active_attackers(99).empty());
  EXPECT_FALSE(s->active_attackers(100).empty());

  noc::MeshConfig cfg;
  cfg.shape = p.mesh;
  traffic::Simulation sim(cfg);
  s->install(sim, 23);

  // Malicious volume only (total minus benign), so the benign background
  // does not drown out the ramp.
  const auto malicious_span = [&](noc::Cycle cycles) {
    const auto before =
        sim.mesh().stats().packets_ejected() - sim.mesh().benign_stats().packets_ejected();
    for (noc::Cycle c = 0; c < cycles; ++c) {
      s->on_cycle(sim.mesh().now());
      sim.step();
    }
    const auto after =
        sim.mesh().stats().packets_ejected() - sim.mesh().benign_stats().packets_ejected();
    return after - before;
  };

  malicious_span(100);                        // reach attack_start
  const auto early = malicious_span(400);     // FIR near kRampStartFir
  malicious_span(kRampCycles - 400);          // climb the ramp
  const auto late = malicious_span(400);      // FIR at the full rate
  EXPECT_GT(late, 2 * early);
}

TEST(PulseScenario, GroundTruthFollowsTheDutyCycle) {
  ScenarioParams p = small_params();
  p.attack_start = 1000;
  const auto s = ScenarioRegistry::instance().make("pulse", p, 7);
  ASSERT_NE(s, nullptr);
  const noc::Cycle on = on_cycles(kPulsePeriod, kPulseDuty);  // 75 of 250

  EXPECT_TRUE(s->active_attackers(999).empty());
  EXPECT_EQ(s->active_attackers(1000).size(), 2U);  // on-span [0, on) of the period
  EXPECT_EQ(s->active_attackers(1000 + on - 1).size(), 2U);
  EXPECT_TRUE(s->active_attackers(1000 + on).empty());  // off-span
  EXPECT_TRUE(s->active_attackers(1000 + kPulsePeriod - 1).empty());
  EXPECT_EQ(s->active_attackers(1000 + kPulsePeriod).size(), 2U);  // next pulse
  // Ground truth and the installed generator share one schedule, so the
  // waveform repeats exactly with the period.
  for (noc::Cycle at = 1000; at < 1000 + 2 * kPulsePeriod; ++at) {
    EXPECT_EQ(s->active_attackers(at).empty(),
              s->active_attackers(at + 5 * kPulsePeriod).empty())
        << at;
  }
}

TEST(PulseScenario, InstalledGeneratorFloodsOnlyDuringPulses) {
  ScenarioParams p = small_params();
  p.attack_start = 0;
  p.fir = 1.0;
  const auto s = ScenarioRegistry::instance().make("pulse", p, 7);
  const noc::Cycle on = on_cycles(kPulsePeriod, kPulseDuty);  // 75 of 250

  noc::MeshConfig cfg;
  cfg.shape = p.mesh;
  traffic::Simulation sim(cfg);
  s->install(sim, 31);

  const auto malicious = [&]() {
    return sim.mesh().stats().packets_ejected() - sim.mesh().benign_stats().packets_ejected();
  };
  const auto step_span = [&](noc::Cycle cycles) {
    const auto before = malicious();
    for (noc::Cycle c = 0; c < cycles; ++c) {
      s->on_cycle(sim.mesh().now());
      sim.step();
    }
    return malicious() - before;
  };

  const auto burst = step_span(on);   // on-span [0, on)
  step_span(kPulsePeriod - on - 50);  // drain margin into the off-span
  const auto quiet = step_span(50);   // last 50 cycles of the off-span
  EXPECT_GT(burst, 0);
  EXPECT_EQ(quiet, 0);
}

TEST(StealthRampScenario, StaysBelowTheStealthCeiling) {
  ScenarioParams p = small_params();
  p.attack_start = 0;
  p.num_attackers = 1;
  const auto s = ScenarioRegistry::instance().make("stealth-ramp", p, 3);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->active_attackers(0).size(), 1U);

  noc::MeshConfig cfg;
  cfg.shape = p.mesh;
  traffic::Simulation sim(cfg);
  s->install(sim, 9);
  // Run well past the ramp, then measure the held rate: it must sit near
  // the ceiling and never approach the full FIR (0.8 default).
  for (noc::Cycle c = 0; c < kStealthRampCycles + 1000; ++c) {
    s->on_cycle(sim.mesh().now());
    sim.step();
  }
  const auto before =
      sim.mesh().stats().packets_ejected() - sim.mesh().benign_stats().packets_ejected();
  const noc::Cycle span = 2000;
  for (noc::Cycle c = 0; c < span; ++c) {
    s->on_cycle(sim.mesh().now());
    sim.step();
  }
  const auto after =
      sim.mesh().stats().packets_ejected() - sim.mesh().benign_stats().packets_ejected();
  const double rate = static_cast<double>(after - before) / static_cast<double>(span);
  EXPECT_NEAR(rate, kStealthFir, 0.05);
}

TEST(ColludingScenario, SplitsTheAggregateAcrossAllColluders) {
  const ScenarioParams p = small_params();
  const auto s = ScenarioRegistry::instance().make("colluding", p, 21);
  ASSERT_NE(s, nullptr);
  const auto colluders = static_cast<std::size_t>(kColluders);
  EXPECT_EQ(s->all_attackers().size(), colluders);
  EXPECT_TRUE(s->active_attackers(p.attack_start - 1).empty());
  EXPECT_EQ(s->active_attackers(p.attack_start).size(), colluders);
}

TEST(MimicryScenario, ShapesAttackTrafficLikeTheBenignPattern) {
  ScenarioParams p = small_params();
  p.attack_start = 0;
  p.benign = monitor::Benchmark{traffic::SyntheticPattern::BitComplement};
  const auto s = ScenarioRegistry::instance().make("mimicry", p, 29);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->active_attackers(0).size(), 2U);

  noc::MeshConfig cfg;
  cfg.shape = p.mesh;
  traffic::Simulation sim(cfg);
  s->install(sim, 33);
  for (noc::Cycle c = 0; c < 2000; ++c) {
    s->on_cycle(sim.mesh().now());
    sim.step();
  }
  // Malicious volume flows (the mimic injects)...
  const auto malicious =
      sim.mesh().stats().packets_ejected() - sim.mesh().benign_stats().packets_ejected();
  EXPECT_GT(malicious, 0);
}

}  // namespace
}  // namespace dl2f::runtime
