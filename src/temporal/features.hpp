// Cross-source correlation features for the temporal detection head.
//
// The single-window detector sees only the four directional VCO frames of
// one monitoring window, so an attacker that keeps every individual window
// under the decision boundary (pulse duty-cycling, slow stealth ramps,
// colluding low-rate sources, benign-shaped mimicry) is invisible to it.
// The temporal head widens the view along two axes:
//
//   * time   — a sequence of consecutive windows, so sub-threshold but
//              *persistent* pressure and slow drifts become signal;
//   * source — per-NI injection-demand telemetry, so many-sources-one-victim
//              collusion shows up as a rate anomaly at the sources even
//              though no single link saturates.
//
// This header holds the per-window feature-plane builders shared by the
// TemporalDetector's preprocessing and its tests, plus the source-suspect
// heuristic the pipeline uses to assist localization for colluding attacks.
//
// Determinism note: every function here is a pure function of its inputs
// with a fixed iteration order — the bitwise-reproducibility contract of
// the trained weights and campaign results extends through this file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "monitor/window_history.hpp"

namespace dl2f::temporal {

/// Fallback window length when a FrameSample predates NI telemetry
/// (window_cycles == 0); matches DefenseConfig::window_cycles.
inline constexpr std::int64_t kDefaultWindowCycles = 1000;

/// Gain applied to per-node injection rates (flits/cycle) before squashing.
/// Benign NI demand sits well under 1 flit/cycle, so the gain stretches the
/// benign/colluder gap across the squash's responsive range.
inline constexpr float kSourceGain = 4.0F;

/// Bounded monotone normalizer x / (1 + x) for non-negative rates: keeps
/// every feature in [0, 1) without a data-dependent max (which would break
/// the per-window purity the sequence-identity tests rely on).
[[nodiscard]] constexpr float squash(float x) noexcept { return x / (1.0F + x); }

/// Signed variant mapping R -> (-1, 1), used for cross-window deltas.
[[nodiscard]] constexpr float squash_signed(float x) noexcept {
  return x >= 0.0F ? x / (1.0F + x) : x / (1.0F - x);
}

/// Window length to normalize a sample's counters by (its own recorded
/// length, or kDefaultWindowCycles when unknown).
[[nodiscard]] constexpr std::int64_t window_cycles_of(const monitor::FrameSample& s) noexcept {
  return s.window_cycles > 0 ? s.window_cycles : kDefaultWindowCycles;
}

/// Raw (pre-squash, pre-gain) aggregate BOC pressure rate per frame cell:
/// the four directional blocked-cycle counters summed cellwise, divided by
/// the window length. `dst` receives rows x (cols-1) floats; `n` must equal
/// that plane size.
void pressure_rate_into(const monitor::FrameSample& s, float* dst, std::size_t n);

/// RAW (gained, pre-squash) per-source injection-rate plane: node (x, y)
/// maps to plane cell (row y, col min(x, cols-2)) so the rightmost two mesh
/// columns fold into the last frame column by max — frames are
/// rows x (cols-1), one column narrower than the mesh. Missing telemetry
/// (empty ni_load) yields zeros. The raw plane feeds the rate-trend
/// (windowed slope) channel: a stealth ramp's slope is linear here but
/// compressed to invisibility after the squash.
void sources_rate_into(const monitor::FrameSample& s, const MeshShape& mesh, float* dst,
                       std::size_t n);

/// Knobs of the colluding-source localization assist.
struct SuspectConfig {
  /// A node is suspect when its sequence-mean injection rate exceeds the
  /// trimmed mean by this many trimmed standard deviations...
  double sigma_gate = 3.0;
  /// ...and by this absolute flits/cycle margin (guards the sigma gate
  /// against near-zero variance on uniform benign workloads).
  double min_margin = 0.25;
  /// Assist only fires with at least this many suspects — one or two hot
  /// sources are the static families' territory, where the segmentation
  /// localizer is already accurate and must not be second-guessed.
  std::int32_t min_sources = 3;
};

/// Nodes whose mean injection-demand rate across the sequence stands out
/// from the (top-eighth-trimmed) population — the colluding family's
/// many-sources signature. Returns ascending NodeIds; empty when fewer
/// than cfg.min_sources qualify or no window carries NI telemetry.
[[nodiscard]] std::vector<NodeId> source_suspects(monitor::SequenceView seq,
                                                  const MeshShape& mesh,
                                                  const SuspectConfig& cfg = {});

}  // namespace dl2f::temporal
