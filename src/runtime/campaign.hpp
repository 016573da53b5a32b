// Parallel scenario-campaign engine: sweep a scenario-family ×
// benign-workload × seed grid of online defense runs on a worker pool and
// aggregate the results into the repo's TextTable reports.
//
// Scaling model: one complete, independent Simulation + DefenseRuntime per
// job; the caller and cfg.threads - 1 common::WorkerPool threads drain the
// job grid through an atomic cursor. The trained CNN pair is deserialized
// ONCE from the ModelSnapshot into a single const core::PipelineEngine
// that every worker shares by reference — each job's DefenseRuntime brings
// its own PipelineSession scratch — so jobs never share mutable state and
// results are byte-identical for any worker count (each job's randomness
// derives only from its own grid coordinates).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.hpp"
#include "runtime/defense.hpp"
#include "runtime/scenario.hpp"

namespace dl2f::runtime {

/// A trained pipeline frozen as bytes — the serialization format for
/// trained weights (files, fleets, checkpoints).
struct ModelSnapshot {
  core::Dl2FenceConfig config;
  std::string detector_weights;
  std::string localizer_weights;
  /// Temporal sequence head blob; empty when the engine has none (the
  /// config's enable_temporal flag and this blob travel together).
  std::string temporal_weights;

  static ModelSnapshot capture(const core::PipelineEngine& engine);

  /// Deserialize into a shareable engine — the one way to load a snapshot:
  /// builds PipelineEngine(config) and loads each blob into its model
  /// (nn::Sequential::load). Throws std::runtime_error when a blob does not
  /// match its architecture, or when a temporal blob is present without
  /// config.enable_temporal or missing with it.
  [[nodiscard]] core::PipelineEngine make_engine() const;
};

/// Dataset/training budget for train_model_snapshot (defaults sized for
/// an 8x8 mesh in a few tens of seconds). Each model trains through
/// nn::train with its own fixed architecture and recipe; the preset sets
/// only how much data, how many epochs, the seed and the worker count.
struct TrainPreset {
  std::int32_t scenarios = 8;
  std::int32_t benign_samples = 3;
  std::int32_t attack_samples = 3;
  std::int32_t detector_epochs = 50;
  std::int32_t localizer_epochs = 25;
  std::uint64_t seed = 0x5eedULL;
  /// Data-parallel training workers (nn::TrainConfig::threads). The
  /// snapshot's weights are byte-identical for a given seed at any thread
  /// count, so this only trades wall-clock — campaigns stay reproducible.
  std::int32_t threads = 1;

  // --- temporal sequence head (src/temporal) ---

  /// Additionally train a temporal detector on an adversarial
  /// window-sequence grid and carry it in the snapshot. The resulting
  /// engine's DefenseRuntimes score sliding sequences (single-window OR
  /// temporal verdict), closing the evasive families' blind spots.
  bool temporal = false;
  std::int32_t sequence_length = 4;
  std::int32_t temporal_epochs = 30;
  /// Adversarial grid budget (temporal::SequenceDatasetConfig).
  std::int32_t temporal_windows_per_run = 12;
  std::int32_t temporal_runs_per_cell = 2;
  /// Scenario families mixed into the adversarial grid; empty = ALL
  /// registered families (builtin + evasive — the retraining preset).
  std::vector<std::string> adversarial_families;
  /// Benign workloads for the adversarial sequence grid; empty = the same
  /// benigns the base dataset trains on. Set explicitly when the campaign
  /// scores more workloads than the base mix: a sequence head that never
  /// saw a workload's benign rhythm will confidently flag it.
  std::vector<monitor::Benchmark> temporal_benigns;
};

/// Simulate, train and freeze a detector/localizer pair for `mesh` on the
/// given benign workload with FDoS overlays (the paper's VCO+BOC config).
[[nodiscard]] ModelSnapshot train_model_snapshot(const MeshShape& mesh,
                                                 const monitor::Benchmark& benign,
                                                 const TrainPreset& preset);

/// Same, pooling the training dataset over several benign workloads — the
/// model a cross-workload robustness campaign should start from (one
/// workload's traffic statistics do not transfer to the other eight).
[[nodiscard]] ModelSnapshot train_model_snapshot(const MeshShape& mesh,
                                                 const std::vector<monitor::Benchmark>& benigns,
                                                 const TrainPreset& preset);

struct CampaignConfig {
  /// Grid axes: every family must be a ScenarioRegistry name.
  std::vector<std::string> families = builtin_scenario_families();
  /// Third grid axis: benign workloads each (family, seed) cell runs
  /// against. Empty keeps the two-axis grid, running every job on
  /// params.benign (each job's workload name is still recorded).
  std::vector<monitor::Benchmark> workloads;
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  /// Job workers, the caller included; clamped to [1, job count].
  std::int32_t threads = 1;
  std::int32_t windows = 12;  ///< monitoring windows per job
  ScenarioParams params;      ///< params.mesh must match the model's mesh
  DefenseConfig defense;
};

struct JobResult {
  std::string family;
  std::string workload;  ///< benign workload name (Benchmark::name())
  std::uint64_t seed = 0;
  DefenseSummary summary;
};

/// One grid cell's jobs, averaged (see runtime/robustness.hpp).
struct CampaignCell {
  std::string family;
  std::string workload;  ///< empty for a cell over every workload
  std::int64_t jobs = 0;

  double detection_accuracy = 0.0;  ///< mean per-window verdict accuracy
  double detection_f1 = 0.0;        ///< mean per-window verdict F1
  double localization_f1 = 0.0;     ///< mean TLM attacker-set F1 (attack windows)
  double mitigation_rate = 0.0;     ///< fraction of jobs fully fenced
  double mean_time_to_mitigate = -1.0;  ///< cycles, over mitigated jobs (-1: none)
  double recovery_rate = 0.0;           ///< fraction of jobs recovered
  double mean_recovery_ratio = -1.0;    ///< recovered/baseline latency (-1: none)
};

struct CampaignResult {
  /// Grid order: family-major, then workload, seed-minor.
  std::vector<JobResult> jobs;

  /// Average the jobs of (family, workload) in grid order; an empty
  /// `workload` averages the family's jobs over every workload. A cell
  /// with no jobs keeps jobs == 0 and the defaults above.
  [[nodiscard]] CampaignCell cell(std::string_view family, std::string_view workload = {}) const;

  /// One row per family that has jobs: cell(family) over every workload.
  [[nodiscard]] TextTable family_table(const std::vector<std::string>& family_order) const;

  /// Deterministic fixed-precision dump of every job — equal strings mean
  /// equal campaigns (the worker-count determinism contract).
  [[nodiscard]] std::string serialize() const;
};

/// Run the full grid. Throws std::invalid_argument before any worker
/// starts if a family is not registered, cfg.params.mesh differs from
/// the snapshot's mesh or cfg.defense.window_cycles < 1. A job's
/// exception stops the remaining jobs and is rethrown here once every
/// worker has returned.
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& cfg, const ModelSnapshot& model);

}  // namespace dl2f::runtime
