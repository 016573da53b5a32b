#include "runtime/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

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
  // A 3x3 mesh cannot host 8 sweep victims >= 2 hops from two attackers,
  // nor 9 distinct attacker placements; construction must still terminate
  // with however many legs fit.
  ScenarioParams p;
  p.mesh = MeshShape::square(3);
  p.num_attackers = 2;
  p.sweep_victims = 8;
  const auto sweep = ScenarioRegistry::instance().make("victim-sweep", p, 1);
  ASSERT_NE(sweep, nullptr);
  EXPECT_FALSE(sweep->all_attackers().empty());

  p.num_attackers = 12;  // more attackers than the mesh has nodes
  const auto multi = ScenarioRegistry::instance().make("multi-victim", p, 1);
  ASSERT_NE(multi, nullptr);
  EXPECT_FALSE(multi->all_attackers().empty());
  EXPECT_LE(multi->all_attackers().size(), 9U);
}

TEST(ScenarioRegistry, RejectsDegenerateSchedules) {
  // A zero period used to divide by zero on the first on_cycle at or after
  // attack_start (transient, victim-sweep) or silently never flood (pulse).
  const auto& registry = ScenarioRegistry::instance();
  const auto rejects = [&](const char* family, auto mutate) {
    ScenarioParams p = small_params();
    mutate(p);
    EXPECT_THROW((void)registry.make(family, p, 1), std::invalid_argument) << family;
  };
  rejects("transient", [](ScenarioParams& p) { p.burst_period = 0; });
  rejects("transient", [](ScenarioParams& p) { p.burst_period = -400; });
  rejects("transient", [](ScenarioParams& p) { p.burst_duty = -0.1; });
  rejects("transient", [](ScenarioParams& p) { p.burst_duty = 1.5; });
  rejects("pulse", [](ScenarioParams& p) { p.pulse_period = 0; });
  rejects("pulse", [](ScenarioParams& p) { p.pulse_duty = 1.01; });
  rejects("pulse", [](ScenarioParams& p) { p.pulse_duty = std::nan(""); });
  rejects("victim-sweep", [](ScenarioParams& p) { p.sweep_period = 0; });
  rejects("victim-sweep", [](ScenarioParams& p) { p.sweep_victims = 0; });
  // No attackers would flood nothing while attack_active() reports the
  // attack on; a FIR outside [0, 1] would be clamped silently.
  for (const auto& family : all_scenario_families()) {
    if (family == "colluding") continue;  // places `colluders`, not num_attackers
    rejects(family.c_str(), [](ScenarioParams& p) { p.num_attackers = 0; });
  }
  rejects("static", [](ScenarioParams& p) { p.fir = 1.5; });
  rejects("multi-victim", [](ScenarioParams& p) { p.fir = -0.1; });
  rejects("ramp", [](ScenarioParams& p) { p.ramp_start_fir = -0.1; });
  rejects("stealth-ramp", [](ScenarioParams& p) { p.stealth_fir = 1.5; });
  rejects("stealth-ramp", [](ScenarioParams& p) { p.ramp_start_fir = std::nan(""); });
  rejects("mimicry", [](ScenarioParams& p) { p.mimicry_fir = std::nan(""); });

  // Boundary values are legal, and a family ignores the fields it does not use.
  ScenarioParams edge = small_params();
  edge.burst_duty = 1.0;
  edge.pulse_duty = 0.0;
  EXPECT_NO_THROW((void)registry.make("transient", edge, 1));
  EXPECT_NO_THROW((void)registry.make("pulse", edge, 1));
  edge.burst_period = edge.pulse_period = edge.sweep_period = 0;
  edge.sweep_victims = 0;
  edge.ramp_start_fir = edge.stealth_fir = edge.mimicry_fir = 2.0;
  EXPECT_NO_THROW((void)registry.make("static", edge, 1));
  edge.num_attackers = 0;
  EXPECT_NO_THROW((void)registry.make("colluding", edge, 1));
}

TEST(ScenarioSchedule, AttackersFloodTogetherAndAdvanceReportsTheSpan) {
  // The single schedule's invariant: at every cycle a scenario's attackers
  // are all on or all off, and advance() reports exactly whether the
  // attack was on at some cycle of the span it stepped.
  for (const auto& family : all_scenario_families()) {
    const ScenarioParams p = small_params();  // attack_start = 1000
    const auto s = ScenarioRegistry::instance().make(family, p, 5);
    noc::MeshConfig cfg;
    cfg.shape = p.mesh;
    traffic::Simulation sim(cfg);
    s->install(sim, 11);
    for (noc::Cycle from = 0; from < 3000; from += 500) {
      bool on = false;
      for (noc::Cycle t = from; t < from + 500; ++t) {
        const auto active = s->active_attackers(t);
        EXPECT_TRUE(active.empty() || active == s->all_attackers()) << family << " t=" << t;
        on = on || s->attack_active(t);
      }
      EXPECT_EQ(s->advance(sim, 500), on) << family << " span from " << from;
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
  p.burst_period = 400;
  p.burst_duty = 0.5;
  const auto s = ScenarioRegistry::instance().make("transient", p, 3);
  EXPECT_FALSE(s->active_attackers(0).empty());    // on-phase
  EXPECT_FALSE(s->active_attackers(199).empty());
  EXPECT_TRUE(s->active_attackers(200).empty());   // off-phase
  EXPECT_TRUE(s->active_attackers(399).empty());
  EXPECT_FALSE(s->active_attackers(400).empty());  // next burst
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
  // on-phase spans carry flooding on top of the benign volume, off-phase
  // spans (after a drain gap) carry benign volume only.
  ScenarioParams p = small_params();
  p.attack_start = 0;
  p.burst_period = 1000;
  p.burst_duty = 0.3;
  const auto s = ScenarioRegistry::instance().make("transient", p, 11);

  noc::MeshConfig cfg;
  cfg.shape = p.mesh;
  traffic::Simulation sim(cfg);
  s->install(sim, 21);

  const auto step_span = [&](noc::Cycle cycles) {
    const auto before = sim.mesh().stats().packets_ejected();
    for (noc::Cycle c = 0; c < cycles; ++c) {
      s->on_cycle(sim.mesh().now());
      sim.step();
    }
    return sim.mesh().stats().packets_ejected() - before;
  };

  const auto burst1 = step_span(300);  // [0, 300): flooding on
  step_span(200);                      // [300, 500): off, flood drains
  const auto quiet = step_span(300);   // [500, 800): off, benign only
  step_span(200);                      // [800, 1000): off
  const auto burst2 = step_span(300);  // [1000, 1300): next burst
  EXPECT_GT(burst1, quiet);
  EXPECT_GT(burst2, quiet);
}

TEST(VictimSweepScenario, KeepsFloodingAcrossRetargets) {
  ScenarioParams p = small_params();
  p.attack_start = 0;
  p.sweep_period = 500;
  p.sweep_victims = 3;
  const auto s = ScenarioRegistry::instance().make("victim-sweep", p, 13);

  noc::MeshConfig cfg;
  cfg.shape = p.mesh;
  traffic::Simulation sim(cfg);
  s->install(sim, 17);
  for (noc::Cycle c = 0; c < 3 * p.sweep_period; ++c) {
    s->on_cycle(sim.mesh().now());
    sim.step();
  }
  // Attackers stayed active through all three sweep legs.
  EXPECT_GT(sim.mesh().stats().packets_ejected(), p.sweep_period);
  EXPECT_EQ(s->active_attackers(3 * p.sweep_period).size(), 2U);
}

TEST(RampScenario, StartsQuietAndReachesFullRate) {
  ScenarioParams p = small_params();
  p.attack_start = 100;
  p.ramp_cycles = 2000;
  p.ramp_start_fir = 0.05;
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
  const auto early = malicious_span(400);     // FIR near ramp_start_fir
  malicious_span(1600);                       // climb the ramp
  const auto late = malicious_span(400);      // FIR near full rate
  EXPECT_GT(late, 2 * early);
}

TEST(PulseScenario, GroundTruthFollowsTheDutyCycle) {
  ScenarioParams p = small_params();
  p.attack_start = 1000;
  p.pulse_period = 200;
  p.pulse_duty = 0.25;
  p.pulse_phase = 0;
  const auto s = ScenarioRegistry::instance().make("pulse", p, 7);
  ASSERT_NE(s, nullptr);

  EXPECT_TRUE(s->active_attackers(999).empty());
  EXPECT_EQ(s->active_attackers(1000).size(), 2U);   // on-span [0, 50) of the period
  EXPECT_EQ(s->active_attackers(1049).size(), 2U);
  EXPECT_TRUE(s->active_attackers(1050).empty());    // off-span
  EXPECT_TRUE(s->active_attackers(1199).empty());
  EXPECT_EQ(s->active_attackers(1200).size(), 2U);   // next pulse
  // Ground truth and the installed generator share one schedule, so the
  // waveform repeats exactly with the period.
  for (noc::Cycle at = 1000; at < 1400; ++at) {
    EXPECT_EQ(s->active_attackers(at).empty(), s->active_attackers(at + 5 * 200).empty()) << at;
  }
}

TEST(PulseScenario, InstalledGeneratorFloodsOnlyDuringPulses) {
  ScenarioParams p = small_params();
  p.attack_start = 0;
  p.pulse_period = 500;
  p.pulse_duty = 0.2;
  p.fir = 1.0;
  const auto s = ScenarioRegistry::instance().make("pulse", p, 7);

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

  const auto burst = step_span(100);   // on-span [0, 100)
  step_span(250);                      // drain margin into the off-span
  const auto quiet = step_span(100);   // [350, 450): deep off-span
  EXPECT_GT(burst, 0);
  EXPECT_EQ(quiet, 0);
}

TEST(StealthRampScenario, StaysBelowTheStealthCeiling) {
  ScenarioParams p = small_params();
  p.attack_start = 0;
  p.stealth_fir = 0.25;
  p.stealth_ramp_cycles = 2000;
  p.ramp_start_fir = 0.05;
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
  for (noc::Cycle c = 0; c < 3000; ++c) {
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
  EXPECT_NEAR(rate, 0.25, 0.05);
}

TEST(ColludingScenario, SplitsTheAggregateAcrossAllColluders) {
  ScenarioParams p = small_params();
  p.colluders = 5;
  p.colluding_aggregate_fir = 0.8;
  const auto s = ScenarioRegistry::instance().make("colluding", p, 21);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->all_attackers().size(), 5U);
  EXPECT_TRUE(s->active_attackers(p.attack_start - 1).empty());
  EXPECT_EQ(s->active_attackers(p.attack_start).size(), 5U);
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
