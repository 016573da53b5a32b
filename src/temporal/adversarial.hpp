// Adversarial retraining grid for the temporal detector.
//
// The base training set (monitor/dataset.hpp) contains only static
// flooding — the paper's threat model. A detector trained on it has never
// seen a pulse trough, a stealth ramp's early windows, or six colluding
// sources each below threshold, which is exactly why the robustness matrix
// shows blind spots. This module generates window-SEQUENCE training data
// by running the scenario families (static AND evasive) over benign
// workloads, stepping and sampling each window exactly as the
// DefenseRuntime does online (runtime::Scenario::advance,
// monitor::sample_window), and labeling each sequence by the window truth
// Scenario::advance returns for its newest window, the one the runtime
// scores against. Every run uses the families' default schedule
// (runtime::ScenarioParams{} on the grid's mesh and the cell's workload).
//
// Seeding follows the campaign convention: each (family, workload, rep)
// cell's randomness is a pure function of its grid coordinates, so the
// dataset — and therefore the trained weights — is byte-identical across
// runs and thread counts.
#pragma once

#include <string>
#include <vector>

#include "monitor/benchmark.hpp"
#include "nn/train.hpp"
#include "runtime/scenario.hpp"
#include "temporal/detector.hpp"

namespace dl2f::temporal {

/// One labeled training sequence: sequence_length consecutive windows
/// (oldest first, warmup-padded exactly as WindowHistory pads live runs).
struct SequenceSample {
  std::vector<monitor::FrameSample> windows;
  /// Attack traffic was active at some point during the NEWEST window.
  bool under_attack = false;
  std::string family;
  std::string workload;

  /// Pointer view over `windows` for TemporalDetector::preprocess_into.
  /// Valid until `windows` is mutated.
  [[nodiscard]] std::vector<const monitor::FrameSample*> view() const;
};

struct SequenceDataset {
  MeshShape mesh = MeshShape::square(8);
  std::int32_t sequence_length = 4;
  std::vector<SequenceSample> samples;

  [[nodiscard]] std::size_t attack_count() const noexcept;
  [[nodiscard]] std::size_t benign_count() const noexcept;
};

struct SequenceDatasetConfig {
  MeshShape mesh = MeshShape::square(8);
  std::int32_t sequence_length = 4;
  /// Monitoring windows simulated (= sequences emitted) per run.
  std::int32_t windows_per_run = 12;
  /// Independent runs (distinct seeds / attacker placements) per
  /// (family, workload) cell.
  std::int32_t runs_per_cell = 2;
  std::uint64_t seed = 0x7e3aULL;
};

/// Run the (families x workloads x runs_per_cell) grid and collect one
/// labeled sequence per simulated window. Families must be ScenarioRegistry
/// names (throws std::invalid_argument otherwise, matching run_campaign),
/// and cfg.sequence_length must lie in [kTemporalKernel,
/// kMaxSequenceLength] (throws likewise). The benign prefix before the
/// default ScenarioParams::attack_start (window 3) supplies the negative
/// class.
///
/// Windows are kDefaultWindowCycles long, the DefenseConfig::window_cycles
/// default the consuming DefenseRuntime samples at (not the workload's
/// sample_period: PARSEC's is twice as long). Every run has a mitigation
/// tail (see collect_run) that quarantines its attackers, so truth-benign
/// windows whose sequences still hold attack history, the post-mitigation
/// regime a live DefenseRuntime scores, join the benign class.
[[nodiscard]] SequenceDataset generate_sequence_dataset(
    const SequenceDatasetConfig& cfg, const std::vector<std::string>& families,
    const std::vector<monitor::Benchmark>& workloads);

/// Train on a SequenceDataset with BCE on the sequence label through
/// nn::train (Adam at learning rate 1e-3, minibatches of nn::kBatchSize),
/// so weights are byte-identical for a given cfg.seed at any cfg.threads.
/// Throws std::invalid_argument, before touching the detector, unless the
/// dataset's sequence_length equals the detector's and every sample passes
/// TemporalDetector::check_sequence.
nn::TrainReport train_temporal_detector(TemporalDetector& detector, const SequenceDataset& data,
                                        const nn::TrainConfig& cfg);

}  // namespace dl2f::temporal
