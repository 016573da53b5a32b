// Temporal-head benchmark + determinism gate.
//
// Two jobs, mirroring what bench_train does for the single-window CNNs:
//
//  1. Determinism gate: train the temporal head of one PipelineEngine
//     (mutable_temporal()) on one adversarial sequence dataset at 1, 2
//     and 4 worker threads and byte-compare the serialized weights.
//     nn::train's fixed-order sliced gradient reduction promises
//     bitwise-identical weights at any thread count; the process exits 1
//     the moment that contract breaks.
//
//  2. Throughput: score the dataset's sequences through the pipeline's
//     sequence entry point, PipelineSession::detect_sequence, and report
//     sequences/second (best of kScoringPasses passes) plus the
//     training-set confusion summary and its F1 (train_f1) — the quick
//     health signal that the adversarial retraining actually separates
//     the classes, which BENCH_baseline.json floors.
//
// The grid is every scenario family over two workloads, one 10-window run
// per cell at the families' default schedules (180 sequences).
// Output: stdout summary + machine-readable BENCH_temporal.json.
// Pass --quick for the CI preset: the same grid, 10 training epochs
// instead of 30.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"
#include "core/pipeline.hpp"
#include "temporal/adversarial.hpp"

using namespace dl2f;

namespace {

/// Timed passes over the sequence set; the fastest one is reported, so one
/// slow pass on a shared host does not read as a regression.
constexpr int kScoringPasses = 8;

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") quick = true;
  }

  const MeshShape mesh = MeshShape::square(8);

  temporal::SequenceDatasetConfig seq_cfg;
  seq_cfg.mesh = mesh;
  // One grid in both modes. The attack starts at window 3 and the
  // mitigation tail fences from window 7, so a 10-window run holds up to
  // four attack windows: enough for the quick preset's training-set
  // separation (the gated train_f1) to notice a head that stopped learning.
  seq_cfg.windows_per_run = 10;
  seq_cfg.runs_per_cell = 1;
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

  core::Dl2FenceConfig engine_cfg = core::Dl2FenceConfig::paper_default(mesh);
  engine_cfg.enable_temporal = true;
  engine_cfg.temporal.sequence_length = seq_cfg.sequence_length;
  core::PipelineEngine engine(engine_cfg);

  nn::TrainConfig train_cfg{.epochs = quick ? 10 : 30, .seed = 42};

  // Determinism gate: byte-identical weights at every thread count. Every
  // run re-initializes the head from the seed, so the engine ends up
  // holding the (gated-identical) weights of the last run.
  std::string reference;
  double train_secs_1t = 0.0;
  float final_loss = 0.0F;
  for (const std::int32_t threads : {1, 2, 4}) {
    train_cfg.threads = threads;
    const auto begin = std::chrono::steady_clock::now();
    const auto report =
        temporal::train_temporal_detector(engine.mutable_temporal(), data, train_cfg);
    const auto end = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(end - begin).count();

    std::ostringstream blob;
    engine.temporal().model().save(blob);
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

  // Throughput + training-set separation through the session.
  std::vector<std::vector<const monitor::FrameSample*>> views;
  views.reserve(data.samples.size());
  for (const auto& seq : data.samples) views.push_back(seq.view());
  core::PipelineSession session(engine);
  std::vector<float> probabilities(views.size());
  double best_secs = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < kScoringPasses; ++pass) {
    const auto begin = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < views.size(); ++i) {
      probabilities[i] = session.detect_sequence(views[i]);
    }
    const auto end = std::chrono::steady_clock::now();
    best_secs = std::min(best_secs, std::chrono::duration<double>(end - begin).count());
  }
  const double seq_per_sec =
      best_secs > 0.0 ? static_cast<double>(views.size()) / best_secs : 0.0;
  ConfusionMatrix cm;
  for (std::size_t i = 0; i < views.size(); ++i) {
    cm.add(probabilities[i] > engine_cfg.temporal.threshold, data.samples[i].under_attack);
  }

  std::cout << "\nTraining-set separation: " << cm << "\nScoring: " << seq_per_sec
            << " sequences/s (best of " << kScoringPasses << " passes)\n";

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
