// Temporal-head benchmark + determinism gate.
//
// Two jobs, mirroring what bench_train does for the single-window CNNs:
//
//  1. Determinism gate: train the temporal detector on one adversarial
//     sequence dataset at 1, 2 and 4 worker threads and byte-compare the
//     serialized weights. nn::train's fixed-order sliced gradient
//     reduction promises bitwise-identical weights at any thread count;
//     the process exits 1 the moment that contract breaks.
//
//  2. Throughput: score the dataset's sequences through the pipeline's
//     sequence entry point (PipelineSession::process_sequence semantics,
//     detector-only) and report sequences/second plus the training-set
//     confusion summary — the quick health signal that the adversarial
//     retraining actually separates the classes.
//
// Output: stdout summary + machine-readable BENCH_temporal.json.
// Pass --quick for the CI preset.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "core/pipeline.hpp"
#include "temporal/adversarial.hpp"

using namespace dl2f;

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") quick = true;
  }

  const MeshShape mesh = MeshShape::square(8);

  temporal::SequenceDatasetConfig seq_cfg;
  seq_cfg.mesh = mesh;
  seq_cfg.windows_per_run = quick ? 6 : 10;
  seq_cfg.runs_per_cell = 1;
  seq_cfg.params.mesh = mesh;
  const std::vector<std::string> families = runtime::all_scenario_families();
  const std::vector<monitor::Benchmark> workloads{
      monitor::Benchmark{traffic::SyntheticPattern::UniformRandom},
      monitor::Benchmark{traffic::SyntheticPattern::Tornado}};

  std::cout << "Generating the adversarial sequence grid (" << families.size() << " families x "
            << workloads.size() << " workloads)...\n";
  const auto gen_begin = std::chrono::steady_clock::now();
  const temporal::SequenceDataset data =
      temporal::generate_sequence_dataset(seq_cfg, families, workloads);
  const auto gen_end = std::chrono::steady_clock::now();
  const double gen_secs = std::chrono::duration<double>(gen_end - gen_begin).count();
  std::cout << data.samples.size() << " sequences (" << data.attack_count() << " attack / "
            << data.benign_count() << " benign) in " << gen_secs << " s\n\n";

  temporal::TemporalDetectorConfig det_cfg;
  det_cfg.mesh = mesh;
  det_cfg.sequence_length = seq_cfg.sequence_length;

  nn::TrainConfig train_cfg{.epochs = quick ? 10 : 30, .seed = 42};

  // Determinism gate: byte-identical weights at every thread count.
  std::string reference;
  double train_secs_1t = 0.0;
  float final_loss = 0.0F;
  temporal::TemporalDetector detector(det_cfg);
  for (const std::int32_t threads : {1, 2, 4}) {
    temporal::TemporalDetector candidate(det_cfg);
    train_cfg.threads = threads;
    const auto begin = std::chrono::steady_clock::now();
    const auto report = temporal::train_temporal_detector(candidate, data, train_cfg);
    const auto end = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(end - begin).count();

    std::ostringstream blob;
    candidate.model().save(blob);
    if (reference.empty()) {
      reference = blob.str();
      train_secs_1t = secs;
      final_loss = report.final_loss;
    } else if (blob.str() != reference) {
      std::cout << "FAIL: temporal training with " << threads
                << " threads diverged from the 1-thread weights\n";
      return 1;
    }
    std::cout << threads << " thread(s): " << secs << " s, final loss " << report.final_loss
              << " (byte-identical: yes)\n";
  }

  // Throughput + training-set separation through the reference scorer,
  // using the gate's 1-thread weights.
  std::istringstream trained(reference);
  if (!detector.model().load(trained)) {
    std::cout << "FAIL: could not reload the trained weights\n";
    return 1;
  }
  const auto score_begin = std::chrono::steady_clock::now();
  const ConfusionMatrix cm = temporal::evaluate_temporal_detector(detector, data);
  const auto score_end = std::chrono::steady_clock::now();
  const double score_secs = std::chrono::duration<double>(score_end - score_begin).count();
  const double seq_per_sec =
      score_secs > 0.0 ? static_cast<double>(data.samples.size()) / score_secs : 0.0;

  std::cout << "\nTraining-set separation: " << cm << "\nScoring: " << seq_per_sec
            << " sequences/s\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"temporal\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"mesh\": " << mesh.rows() << ",\n"
       << "  \"sequences\": " << data.samples.size() << ",\n"
       << "  \"attack_sequences\": " << data.attack_count() << ",\n"
       << "  \"generate_seconds\": " << gen_secs << ",\n"
       << "  \"train_seconds_1_thread\": " << train_secs_1t << ",\n"
       << "  \"train_final_loss\": " << final_loss << ",\n"
       << "  \"deterministic_1_2_4\": true,\n"
       << "  \"train_f1\": " << cm.f1() << ",\n"
       << "  \"sequences_per_second\": " << seq_per_sec << "\n"
       << "}\n";
  std::ofstream out("BENCH_temporal.json");
  out << json.str();
  std::cout << "wrote BENCH_temporal.json\n";
  return 0;
}
