// Closed-loop defense: a trained pipeline watching a live simulation must
// fence the true attackers and bring benign mean and tail (p50/p99)
// latency back to the pre-attack baseline.
#include "runtime/defense.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "runtime/campaign.hpp"
#include "runtime/scenario.hpp"

namespace dl2f::runtime {
namespace {

constexpr std::int32_t kMeshSide = 8;

class DefenseLoop : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TrainPreset preset;
    preset.scenarios = 8;
    preset.detector_epochs = 50;
    preset.localizer_epochs = 25;
    model_ = new ModelSnapshot(train_model_snapshot(
        MeshShape::square(kMeshSide), monitor::Benchmark{traffic::SyntheticPattern::UniformRandom},
        preset));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  static ScenarioParams static_attack_params() {
    ScenarioParams p;
    p.mesh = MeshShape::square(kMeshSide);
    p.num_attackers = 2;
    p.fir = 0.8;
    p.attack_start = 3000;
    return p;
  }

  static ModelSnapshot* model_;
};

ModelSnapshot* DefenseLoop::model_ = nullptr;

/// Deterministically initialized (untrained) engine for loop mechanics.
core::PipelineEngine untrained_engine(const MeshShape& mesh) {
  core::PipelineEngine engine(core::Dl2FenceConfig::paper_default(mesh));
  Rng det_rng(7), loc_rng(8);
  engine.mutable_detector().model().init_weights(det_rng);
  engine.mutable_localizer().model().init_weights(loc_rng);
  return engine;
}

TEST_F(DefenseLoop, MitigationFencesAttackersAndRestoresLatency) {
  const core::PipelineEngine engine = model_->make_engine();
  const ScenarioParams params = static_attack_params();
  const auto scenario = ScenarioRegistry::instance().make("static", params, 2024);

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = params.mesh;
  traffic::Simulation sim(mesh_cfg);
  scenario->install(sim, 7);

  DefenseConfig cfg;  // 1000-cycle windows, probation 3
  DefenseRuntime runtime(sim, engine, cfg);
  runtime.attach_scenario(scenario.get());
  runtime.run_windows(10);

  const DefenseSummary s = runtime.summarize();
  ASSERT_GE(s.first_attack_cycle, 0);
  EXPECT_GE(s.detect_cycle, 0) << "attack never detected";
  ASSERT_TRUE(s.mitigated()) << "attackers never fenced";
  ASSERT_TRUE(s.recovered()) << "benign latency never recovered";

  // Every true attacker ended up quarantined in the mitigation window.
  const auto truth = scenario->all_attackers();
  const auto& windows = runtime.history();
  const auto mit = std::find_if(windows.begin(), windows.end(),
                                [&](const auto& w) { return w.end == s.mitigate_cycle; });
  ASSERT_NE(mit, windows.end());
  for (const NodeId a : truth) {
    EXPECT_NE(std::find(mit->quarantined.begin(), mit->quarantined.end(), a),
              mit->quarantined.end())
        << "attacker " << a << " not fenced";
  }

  // Recovery inside the probation window, mean and tails restored.
  EXPECT_LE(s.recover_cycle - s.mitigate_cycle,
            static_cast<noc::Cycle>(kProbationWindows) * cfg.window_cycles);
  EXPECT_LE(s.recovered_latency, 2.0 * s.baseline_latency);
  const auto rec = std::find_if(windows.begin(), windows.end(),
                                [&](const auto& w) { return w.end == s.recover_cycle; });
  ASSERT_NE(rec, windows.end());
  EXPECT_LE(rec->benign_p50, 2.0 * s.baseline_p50 + 2.0);
  EXPECT_LE(rec->benign_p99, 2.0 * s.baseline_p99 + 4.0);

  // The attack degraded the network in the first place (the recovery is
  // meaningful): peak windowed latency clearly above baseline.
  EXPECT_GT(s.peak_latency, 1.5 * s.baseline_latency);
}

TEST_F(DefenseLoop, MonitorOnlyModeObservesButNeverFences) {
  const core::PipelineEngine engine = model_->make_engine();
  const ScenarioParams params = static_attack_params();
  const auto scenario = ScenarioRegistry::instance().make("static", params, 2024);

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = params.mesh;
  traffic::Simulation sim(mesh_cfg);
  scenario->install(sim, 7);

  DefenseConfig cfg;
  cfg.mitigation_enabled = false;
  DefenseRuntime runtime(sim, engine, cfg);
  runtime.attach_scenario(scenario.get());
  runtime.run_windows(8);

  for (const auto& w : runtime.history()) {
    EXPECT_TRUE(w.quarantined.empty());
    EXPECT_TRUE(w.newly_quarantined.empty());
  }
  const DefenseSummary s = runtime.summarize();
  EXPECT_GE(s.detect_cycle, 0);       // still sees the attack...
  EXPECT_FALSE(s.mitigated());        // ...but never acts
  EXPECT_EQ(sim.mesh().packets_dropped(), 0);
}

TEST_F(DefenseLoop, ProbationReleasesAFalselyFencedNodeEvenInMonitorOnlyMode) {
  const core::PipelineEngine engine = model_->make_engine();
  ScenarioParams params = static_attack_params();
  params.attack_start = 1'000'000;  // benign for the whole test
  const auto scenario = ScenarioRegistry::instance().make("static", params, 2024);

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = params.mesh;
  traffic::Simulation sim(mesh_cfg);
  scenario->install(sim, 7);

  DefenseConfig cfg;
  cfg.mitigation_enabled = false;  // probation must run regardless
  DefenseRuntime runtime(sim, engine, cfg);
  runtime.attach_scenario(scenario.get());

  const NodeId innocent = 27;
  sim.mesh().set_quarantined(innocent, true);  // an operator fence
  EXPECT_TRUE(sim.mesh().quarantined(innocent));

  runtime.run_windows(8);
  EXPECT_FALSE(sim.mesh().quarantined(innocent))
      << "clean probation windows must release the node";
  bool released = false;
  for (const auto& w : runtime.history()) {
    released = released || std::find(w.released.begin(), w.released.end(), innocent) !=
                               w.released.end();
  }
  EXPECT_TRUE(released);
}

TEST_F(DefenseLoop, OngoingAttackDoesNotBlockAnUnimplicatedNodesRelease) {
  // Probation is per-node evidence: while a real flood keeps the detector
  // dirty, a fenced node the TLM never names must still be released.
  const core::PipelineEngine engine = model_->make_engine();
  ScenarioParams params = static_attack_params();
  params.attack_start = 0;  // attack from the first cycle, never mitigated
  const auto scenario = ScenarioRegistry::instance().make("static", params, 2024);

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = params.mesh;
  traffic::Simulation sim(mesh_cfg);
  scenario->install(sim, 7);

  DefenseConfig cfg;
  cfg.mitigation_enabled = false;  // flood stays live -> windows stay dirty
  DefenseRuntime runtime(sim, engine, cfg);
  runtime.attach_scenario(scenario.get());

  const NodeId innocent = 63;  // mesh corner, never on the flooding route
  sim.mesh().set_quarantined(innocent, true);
  runtime.run_windows(10);

  // The attack was indeed seen (dirty windows happened)...
  std::int32_t dirty = 0;
  for (const auto& w : runtime.history()) dirty += w.detected ? 1 : 0;
  EXPECT_GT(dirty, 0);
  // ...and the unimplicated node was still released.
  EXPECT_FALSE(sim.mesh().quarantined(innocent));
}

TEST(DefenseGroundTruth, MitigationInADormantWindowStillCountsAsMitigated) {
  // Fencing often lands in a window where a periodic attack is between
  // bursts (truth_attack false); the summary must still certify
  // mitigation once every attacker that has flooded is fenced.
  const MeshShape mesh = MeshShape::square(kMeshSide);
  const core::PipelineEngine engine = untrained_engine(mesh);

  ScenarioParams params;
  params.mesh = mesh;
  params.attack_start = 1000;
  // kBurstPeriod at kBurstDuty: on [1000,2000), off [2000,3000), ...
  static_assert(kBurstPeriod == 2000 && kBurstDuty == 0.5);
  const auto scenario = ScenarioRegistry::instance().make("transient", params, 5);

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = mesh;
  traffic::Simulation sim(mesh_cfg);
  scenario->install(sim, 9);

  DefenseConfig cfg;
  cfg.mitigation_enabled = false;  // fence manually, in a dormant window
  DefenseRuntime runtime(sim, engine, cfg);
  runtime.attach_scenario(scenario.get());
  runtime.run_windows(3);  // benign, burst, off-phase
  for (const NodeId a : scenario->all_attackers()) sim.mesh().set_quarantined(a, true);
  runtime.run_windows(2);  // fenced throughout -> truth_attack false here

  const DefenseSummary s = runtime.summarize();
  ASSERT_GE(s.first_attack_cycle, 0);
  EXPECT_TRUE(s.mitigated());
  EXPECT_EQ(s.mitigate_cycle, 4000);  // end of the first post-fence window
}

TEST(DefenseGroundTruth, WindowTruthIntegratesBurstsThatDodgeTheMidpoint) {
  // A pulse attack started 100 cycles into a 1000-cycle window floods
  // four pulses per window, yet (t - 1100) mod 250 is 150, past the
  // 75-cycle on-span, at every window start from cycle 2000 and at every
  // midpoint (cycle 1000 precedes the attack): a first-cycle or midpoint
  // sample never sees it. The window truth must still mark these windows
  // as attacked.
  const MeshShape mesh = MeshShape::square(kMeshSide);
  const core::PipelineEngine engine = untrained_engine(mesh);

  ScenarioParams params;
  params.mesh = mesh;
  params.attack_start = 1100;
  static_assert(kPulsePeriod == 250 && kPulseDuty == 0.3);
  const auto scenario = ScenarioRegistry::instance().make("pulse", params, 5);
  for (noc::Cycle start = 1000; start < 4000; start += 1000) {
    ASSERT_FALSE(scenario->attack_active(start)) << start;
    ASSERT_FALSE(scenario->attack_active(start + 500)) << start + 500;
  }

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = mesh;
  traffic::Simulation sim(mesh_cfg);
  scenario->install(sim, 9);

  DefenseConfig cfg;
  cfg.mitigation_enabled = false;  // untrained model: keep the fence out of the truth
  DefenseRuntime runtime(sim, engine, cfg);
  runtime.attach_scenario(scenario.get());
  runtime.run_windows(4);

  const auto& windows = runtime.history();
  EXPECT_FALSE(windows[0].truth_attack);  // pre-attack window
  for (std::size_t w = 1; w < windows.size(); ++w) {
    EXPECT_TRUE(windows[w].truth_attack) << "window " << w;
    EXPECT_EQ(windows[w].truth_attackers, scenario->all_attackers()) << "window " << w;
  }
}

TEST(DefenseRuntimeConfig, EngineMeshMustMatchTheSimulation) {
  // A 4x4 engine on an 8x8 mesh would stage 8x8 frames into 4x4 arenas.
  const core::PipelineEngine engine = untrained_engine(MeshShape::square(4));
  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = MeshShape::square(kMeshSide);
  traffic::Simulation sim(mesh_cfg);
  EXPECT_THROW((void)DefenseRuntime(sim, engine), std::invalid_argument);
}

TEST(DefenseRuntimeConfig, RejectsEmptyMonitoringWindows) {
  // A window of zero (or negative) cycles simulates nothing, so every
  // metric of the run would read 0 without an error.
  const core::PipelineEngine engine = untrained_engine(MeshShape::square(kMeshSide));
  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = MeshShape::square(kMeshSide);
  traffic::Simulation sim(mesh_cfg);
  for (const std::int64_t window_cycles : {std::int64_t{0}, std::int64_t{-1000}}) {
    DefenseConfig cfg;
    cfg.window_cycles = window_cycles;
    EXPECT_THROW((void)DefenseRuntime(sim, engine, cfg), std::invalid_argument) << window_cycles;
  }
  DefenseConfig one_cycle;
  one_cycle.window_cycles = 1;
  EXPECT_NO_THROW((void)DefenseRuntime(sim, engine, one_cycle));
}

}  // namespace
}  // namespace dl2f::runtime
