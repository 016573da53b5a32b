// Labeled feature-frame datasets: what the CNNs train and evaluate on.
//
// One FrameSample is one monitoring window: the four directional VCO
// frames (instantaneous, sampled at the window end), the four directional
// BOC frames (accumulated over the window), the attack label, and —
// for attack windows — the ground-truth segmentation masks derived from
// the scenario's XY flooding routes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "monitor/benchmark.hpp"
#include "monitor/sampler.hpp"
#include "traffic/fdos.hpp"

namespace dl2f::monitor {

struct FrameSample {
  DirectionalFrames vco;
  DirectionalFrames boc;
  /// Per-node NI injection demand over this window, in flits, indexed by
  /// NodeId (FeatureSampler::sample_ni_load). Empty when the producer does
  /// not sample it — temporal feature extraction treats missing as zero.
  std::vector<float> ni_load;
  /// Length of the monitoring window that produced this sample, in cycles
  /// (0 = unknown; temporal feature extraction falls back to its default).
  std::int64_t window_cycles = 0;
  bool under_attack = false;

  /// Per-direction binary masks of input ports on a flooding route
  /// (all-zero when benign). Segmentation ground truth.
  DirectionalFrames port_truth;
  /// Ground-truth victim node ids (routing-path victims + target victim).
  std::vector<NodeId> victim_truth;
  /// The scenario that produced this sample (attackers empty when benign).
  traffic::AttackScenario scenario;
};

/// Sample one monitoring window off `mesh`: the VCO, BOC and NI-load
/// frames, each reset after its read (in that order), with window_cycles
/// set. Training sets and the live runtime both sample through this, so a
/// deployed model sees windows exactly like the ones it trained on.
[[nodiscard]] FrameSample sample_window(const FeatureSampler& sampler, noc::Mesh& mesh,
                                        std::int64_t window_cycles);

/// Throws std::invalid_argument naming `who` unless each of `sample`'s VCO
/// and BOC frames is mesh.rows() x (mesh.cols() - 1) and its ni_load is
/// empty or holds one value per node. Models stage windows into slots
/// sized for their own mesh, so a window from another mesh must stop here
/// instead of overrunning them. Throwing allocates: call it before
/// staging, outside any NoAllocScope.
void check_window(const FrameSample& sample, const MeshShape& mesh, const char* who);

/// Non-owning view of contiguous monitoring windows — the batch unit the
/// inference API (core::PipelineSession::process_batch) consumes. Any
/// contiguous FrameSample storage (a Dataset, a vector of live windows, a
/// single sample) converts to one for free.
using WindowBatch = std::span<const FrameSample>;

struct Dataset {
  MeshShape mesh = MeshShape::square(16);
  std::vector<FrameSample> samples;

  [[nodiscard]] std::size_t attack_count() const noexcept;
  [[nodiscard]] std::size_t benign_count() const noexcept;

  /// All samples as a batch view for bulk scoring.
  [[nodiscard]] WindowBatch windows() const noexcept { return {samples.data(), samples.size()}; }
};

struct DatasetConfig {
  MeshShape mesh = MeshShape::square(16);
  noc::RouterConfig router;
  /// Scenarios simulated per benchmark (paper: 18 per benchmark at FIR
  /// 0.8, split between 1- and 2-attacker cases).
  std::int32_t scenarios_per_benchmark = 18;
  double fir = 0.8;
  std::int64_t warmup_cycles = 1500;       ///< benign-only settling time
  std::int64_t attack_ramp_cycles = 1000;  ///< settle time after enabling FDoS
  std::int32_t benign_samples_per_run = 4;
  std::int32_t attack_samples_per_run = 4;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

/// Simulate every scenario of every requested benchmark and emit labeled
/// samples. Each run: warmup -> benign windows -> enable FDoS -> ramp ->
/// attack windows; BOC counters reset at each window boundary.
[[nodiscard]] Dataset generate_dataset(const DatasetConfig& cfg,
                                       const std::vector<Benchmark>& benchmarks);

/// Build the per-direction ground-truth port masks for a scenario.
[[nodiscard]] DirectionalFrames ground_truth_masks(const FrameGeometry& geom,
                                                   const traffic::AttackScenario& scenario);

/// Deterministically split a dataset into train/test parts (stratified by
/// label) with the given test fraction.
struct DatasetSplit {
  Dataset train;
  Dataset test;
};
[[nodiscard]] DatasetSplit split_dataset(const Dataset& data, double test_fraction,
                                         std::uint64_t seed);

}  // namespace dl2f::monitor
