// Online defense demo: an 8x8 mesh under a 2-attacker FDoS at FIR 0.8 is
// detected live, the attackers are quarantined at their network
// interfaces, and benign latency recovers to within 2x its pre-attack
// value inside the probation window.
//
// Build & run:  cmake --build build && ./build/examples/online_defense
// Exits non-zero if the closed loop fails any of those three claims.
#include <iostream>

#include "runtime/campaign.hpp"
#include "runtime/defense.hpp"
#include "runtime/scenario.hpp"

using namespace dl2f;

namespace {

void print_nodes(const char* label, const std::vector<NodeId>& nodes) {
  if (nodes.empty()) return;
  std::cout << "  " << label;
  for (const NodeId n : nodes) std::cout << ' ' << n;
  std::cout << '\n';
}

}  // namespace

int main() {
  const MeshShape mesh = MeshShape::square(8);
  const monitor::Benchmark benign{traffic::SyntheticPattern::UniformRandom};

  std::cout << "Training detector + localizer (frozen as a ModelSnapshot)...\n";
  const runtime::ModelSnapshot model =
      runtime::train_model_snapshot(mesh, benign, runtime::TrainPreset{});
  // One weight deserialization into an immutable engine; the runtime's
  // session supplies the per-loop scratch.
  const core::PipelineEngine engine = model.make_engine();

  runtime::DefenseConfig defense;          // 1000-cycle windows, probation 3
  runtime::ScenarioParams params;
  params.mesh = mesh;
  params.benign = benign;
  params.num_attackers = 2;
  params.fir = 0.8;
  params.attack_start = 3 * defense.window_cycles;  // 3 benign baseline windows

  auto scenario = runtime::ScenarioRegistry::instance().make("static", params, /*seed=*/2024);
  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = mesh;
  traffic::Simulation sim(mesh_cfg);
  scenario->install(sim, /*seed=*/7);

  runtime::DefenseRuntime loop(sim, engine, defense);
  loop.attach_scenario(scenario.get());

  std::cout << "\nRunning " << 12 << " monitoring windows of " << defense.window_cycles
            << " cycles (attack starts at cycle " << params.attack_start << "):\n";
  for (int w = 0; w < 12; ++w) {
    const runtime::WindowRecord& rec = loop.run_window();
    std::cout << "window " << rec.index << " [" << rec.start << ", " << rec.end << ")  P(DoS) "
              << rec.probability << (rec.detected ? "  DETECTED" : "") << "  benign latency "
              << rec.benign_latency << " (p50 " << rec.benign_p50 << ", p99 " << rec.benign_p99
              << ")\n";
    print_nodes("TLM attackers:", rec.tlm_attackers);
    print_nodes("quarantined:", rec.newly_quarantined);
    print_nodes("released:", rec.released);
  }

  const runtime::DefenseSummary s = loop.summarize();
  std::cout << "\nSummary\n"
            << "  ground-truth attackers:";
  for (const NodeId a : scenario->all_attackers()) std::cout << ' ' << a;
  std::cout << "\n  first attack window starts  cycle " << s.first_attack_cycle
            << "\n  detected by                 cycle " << s.detect_cycle
            << "\n  all attackers fenced by     cycle " << s.mitigate_cycle
            << "\n  benign latency recovered by cycle " << s.recover_cycle
            << "\n  baseline latency " << s.baseline_latency << " (p50 " << s.baseline_p50
            << ", p99 " << s.baseline_p99 << ")"
            << "\n  peak latency     " << s.peak_latency << "\n  recovered to     "
            << s.recovered_latency << "  (" << runtime::kRecoveryRatio << "x bound "
            << runtime::kRecoveryRatio * s.baseline_latency << ")\n";

  const bool detected = s.detect_cycle >= 0;
  const bool mitigated = s.mitigated();
  const bool recovered_in_probation =
      s.recovered() &&
      s.recover_cycle - s.mitigate_cycle <=
          static_cast<noc::Cycle>(runtime::kProbationWindows) * defense.window_cycles;
  std::cout << "\n  attack detected:                    " << (detected ? "yes" : "NO")
            << "\n  attackers quarantined:              " << (mitigated ? "yes" : "NO")
            << "\n  recovered within probation window:  "
            << (recovered_in_probation ? "yes" : "NO") << '\n';

  if (detected && mitigated && recovered_in_probation) {
    std::cout << "\nPASS: closed-loop mitigation restored the network.\n";
    return 0;
  }
  std::cout << "\nFAIL: online defense did not restore the network.\n";
  return 1;
}
