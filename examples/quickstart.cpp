// Quickstart: simulate a flooding attack on an 8x8 NoC, train DL2Fence on
// a small dataset, and run one detection + localization round.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <iostream>

#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "monitor/dataset.hpp"

using namespace dl2f;

int main() {
  const MeshShape mesh = MeshShape::square(8);

  // 1. Generate a labeled dataset: uniform-random benign traffic with
  //    FDoS overlays at FIR 0.8 (scaled-down preset for a quick demo).
  monitor::DatasetConfig data_cfg;
  data_cfg.mesh = mesh;
  data_cfg.scenarios_per_benchmark = 8;
  data_cfg.benign_samples_per_run = 3;
  data_cfg.attack_samples_per_run = 3;
  const std::vector<monitor::Benchmark> benchmarks{
      monitor::Benchmark{traffic::SyntheticPattern::UniformRandom}};

  std::cout << "Generating dataset (simulating " << data_cfg.scenarios_per_benchmark
            << " attack scenarios)...\n";
  const monitor::Dataset data = monitor::generate_dataset(data_cfg, benchmarks);
  const auto split = monitor::split_dataset(data, 0.3, /*seed=*/1);
  std::cout << "  " << data.samples.size() << " windows (" << data.attack_count()
            << " attack, " << data.benign_count() << " benign)\n";

  // 2. Train the engine's two CNNs in place (detector on VCO, localizer on
  //    BOC — Table 3's chosen combination).
  core::PipelineEngine engine(core::Dl2FenceConfig::paper_default(mesh));
  std::cout << "Training detector (CNN classifier on VCO frames)...\n";
  const auto det_report =
      core::train_detector(engine.mutable_detector(), split.train, {.epochs = 25, .seed = 42});
  std::cout << "  final BCE loss " << det_report.final_loss << "\n";

  std::cout << "Training localizer (CNN segmentation on BOC frames)...\n";
  const auto loc_report =
      core::train_localizer(engine.mutable_localizer(), split.train, {.epochs = 25, .seed = 43});
  std::cout << "  final loss " << loc_report.final_loss << ", train dice "
            << loc_report.final_metric << "\n";

  // 3. Score on held-out windows — batched through the shared engine.
  const auto score = core::score_benchmark(engine, "Uniform Random", split.test);
  std::cout << "\nHeld-out results (Uniform Random):\n"
            << "  detection   acc " << score.detection.accuracy << "  prec "
            << score.detection.precision << "  rec " << score.detection.recall << "\n"
            << "  localization acc " << score.localization.accuracy << "  prec "
            << score.localization.precision << "  rec " << score.localization.recall << "\n";

  // 4. Walk one attack window through the full pipeline via a deployment
  //    session (the trained engine is immutable and thread-shareable).
  core::PipelineSession session(engine);
  for (const auto& sample : split.test.samples) {
    if (!sample.under_attack) continue;
    const core::RoundResult round = session.process(sample);
    std::cout << "\nOne attack window, end to end:\n"
              << "  detector probability " << round.probability << " -> "
              << (round.detected ? "DoS detected" : "no DoS") << "\n";
    if (round.detected) {
      std::cout << "  ground truth: attackers";
      for (NodeId a : sample.scenario.attackers) std::cout << ' ' << a;
      std::cout << " -> victim " << sample.scenario.victim << "\n  TLM attackers:";
      for (NodeId a : round.tlm.attackers) std::cout << ' ' << a;
      std::cout << "\n  localized victims (" << round.victims.size() << " of "
                << sample.victim_truth.size() << " true):";
      for (NodeId v : round.victims) std::cout << ' ' << v;
      std::cout << "\n";
    }
    break;
  }
  return 0;
}
