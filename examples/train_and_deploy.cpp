// Train-and-deploy workflow: train the two CNNs once, persist the weights
// to disk, reload them into an immutable PipelineEngine (as a deployed
// accelerator would), open a PipelineSession on it, and run the continuous
// monitoring loop of §3:
//
//   (1) sample VCO each period -> detector;
//   (2) on anomaly, BOC frames -> segmentation localizer;
//   (3) MFF + VCE + TLM -> victims and attackers;
//   (4) repeat until no abnormal frames appear.
//
// The weight files live in a fresh private directory under the system's
// temporary directory, removed before exit, so concurrent runs never
// share them.
//
// Build & run:  cmake --build build && ./build/examples/train_and_deploy
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>

#include "core/pipeline.hpp"
#include "monitor/dataset.hpp"
#include "traffic/simulation.hpp"

using namespace dl2f;

namespace {

int train_and_deploy(const std::filesystem::path& weights_dir) {
  const MeshShape mesh = MeshShape::square(8);
  const std::string det_path = (weights_dir / "detector.bin").string();
  const std::string loc_path = (weights_dir / "localizer.bin").string();

  // --- Offline phase: train and persist --------------------------------
  {
    monitor::DatasetConfig cfg;
    cfg.mesh = mesh;
    cfg.scenarios_per_benchmark = 12;
    std::cout << "[offline] generating training windows...\n";
    const auto data = monitor::generate_dataset(
        cfg, {monitor::Benchmark{traffic::SyntheticPattern::UniformRandom}});

    core::PipelineEngine trainer(core::Dl2FenceConfig::paper_default(mesh));
    std::cout << "[offline] training detector ("
              << trainer.detector().model().param_count() << " weights)...\n";
    core::train_detector(trainer.mutable_detector(), data, {.epochs = 60, .seed = 42});
    std::cout << "[offline] training localizer ("
              << trainer.localizer().model().param_count() << " weights)...\n";
    core::train_localizer(trainer.mutable_localizer(), data, {.epochs = 30, .seed = 43});

    if (!trainer.detector().model().save_file(det_path) ||
        !trainer.localizer().model().save_file(loc_path)) {
      std::cerr << "failed to persist model weights\n";
      return 1;
    }
    std::cout << "[offline] weights saved to detector.bin and localizer.bin in a temporary "
                 "directory\n\n";
  }

  // --- Online phase: reload into an immutable engine and monitor --------
  // The engine is const after this block: one weight set, shareable by any
  // number of per-thread sessions.
  core::PipelineEngine deployed(core::Dl2FenceConfig::paper_default(mesh));
  if (!deployed.mutable_detector().model().load_file(det_path) ||
      !deployed.mutable_localizer().model().load_file(loc_path)) {
    std::cerr << "failed to reload model weights\n";
    return 1;
  }
  core::PipelineSession session(deployed);
  std::cout << "[online] weights reloaded; starting monitoring loop\n";

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = mesh;
  traffic::Simulation sim(mesh_cfg);
  sim.add_generator(std::make_unique<traffic::SyntheticTraffic>(
      traffic::SyntheticPattern::UniformRandom, 0.02, 99));
  traffic::AttackScenario scenario;
  scenario.attackers = {56};
  scenario.victim = 7;
  scenario.fir = 0.8;
  auto attack_owner = std::make_unique<traffic::FloodingAttack>(scenario, 100);
  auto* attack = attack_owner.get();
  attack->set_active(false);
  sim.add_generator(std::move(attack_owner));

  const monitor::FeatureSampler sampler(mesh);
  constexpr std::int64_t kPeriod = 1000;
  sim.run(1500);
  sim.mesh().reset_telemetry();

  for (int round = 1; round <= 8; ++round) {
    // The adversary switches on mid-run and off again later.
    if (round == 3) {
      attack->set_active(true);
      std::cout << "  (cycle " << sim.mesh().now() << ": adversary starts flooding "
                << scenario.victim << " from " << scenario.attackers.front() << ")\n";
    }
    if (round == 6) {
      attack->set_active(false);
      std::cout << "  (cycle " << sim.mesh().now() << ": adversary stops)\n";
    }

    sim.run(kPeriod);
    // The same window sampler monitor::generate_dataset trains on.
    const core::RoundResult r =
        session.process(monitor::sample_window(sampler, sim.mesh(), kPeriod));
    std::cout << "round " << round << " @cycle " << sim.mesh().now() << ": P(DoS)="
              << r.probability;
    if (!r.detected) {
      std::cout << " -> clear\n";
      continue;
    }
    std::cout << " -> DoS! victims:";
    for (NodeId v : r.victims) std::cout << ' ' << v;
    std::cout << " attackers:";
    for (NodeId a : r.tlm.attackers) std::cout << ' ' << a;
    std::cout << '\n';
  }
  return 0;
}

}  // namespace

int main() {
  std::string weights_dir = (std::filesystem::temp_directory_path() / "dl2fence_XXXXXX").string();
  if (mkdtemp(weights_dir.data()) == nullptr) {
    std::cerr << "cannot create a temporary weights directory\n";
    return 1;
  }
  const int rc = train_and_deploy(weights_dir);
  std::filesystem::remove_all(weights_dir);
  return rc;
}
