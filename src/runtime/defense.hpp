// The online closed loop: detect -> localize -> quarantine -> recover.
//
// The offline pipeline (core::PipelineEngine scored through a
// core::PipelineSession) rates monitoring windows after the fact;
// DefenseRuntime runs it *against a live simulation* and acts on the
// result — it owns a session of its own, so many runtimes can share one
// trained engine. Each monitoring window it
//   (1) advances the Simulation window_cycles (through the attached
//       Scenario's advance(), which drives its dynamics cycle by cycle),
//   (2) samples VCO/BOC frames through monitor::sample_window, exactly as
//       the training datasets do,
//   (3) runs the full detection/localization round, and
//   (4) mitigates on per-node evidence: a node the TLM names is
//       quarantined at its network interface (Mesh::set_quarantined) at
//       the end of that window; a fenced node the TLM stops naming for
//       kProbationWindows consecutive windows is released — so false
//       positives recover even while a separate attack keeps the detector
//       busy, and a returning flooder is re-fenced as soon as it is
//       implicated again. A node fenced from outside (an operator calling
//       Mesh::set_quarantined) goes through the same probation.
//
// Per-window benign latency (mean and p50/p99 via histogram diffs) is
// recorded so recovery — "benign latency back within kRecoveryRatio of its
// pre-attack baseline" — is measurable, not anecdotal.
#pragma once

#include <vector>

#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "monitor/sampler.hpp"
#include "monitor/window_history.hpp"
#include "runtime/scenario.hpp"
#include "traffic/simulation.hpp"

namespace dl2f::runtime {

/// Windows after a new quarantine action during which the temporal head's
/// sequence verdict is suppressed (the single-window verdict stays live).
/// The sequence head reads multi-window history, so it necessarily lags
/// the fence: the first post-fence window pairs residual drain congestion
/// with attack history — the head's one systematic false positive. Any
/// attacker the fence missed still floods the current window and is
/// caught by the single-window path.
inline constexpr std::int32_t kTemporalCooldownWindows = 1;

/// A window after mitigation has recovered when its benign latency is at
/// most kRecoveryRatio times the pre-attack baseline.
inline constexpr double kRecoveryRatio = 2.0;

/// Consecutive windows in which the TLM does not name a fenced node before
/// that node is released.
inline constexpr std::int32_t kProbationWindows = 3;

struct DefenseConfig {
  std::int64_t window_cycles = 1000;  ///< monitoring window length, >= 1 (paper: 1000 for STP)
  bool mitigation_enabled = true;     ///< false = monitor-only (probation still releases)
};

/// Everything observed and done in one monitoring window.
struct WindowRecord {
  std::int64_t index = 0;
  noc::Cycle start = 0;
  noc::Cycle end = 0;

  bool detected = false;
  float probability = 0.0F;
  /// Temporal-head sigmoid over the sliding window sequence (0 when the
  /// engine has no temporal head).
  float sequence_probability = 0.0F;
  std::vector<NodeId> tlm_attackers;  ///< TLM verdict (empty when not detected)

  std::vector<NodeId> newly_quarantined;
  std::vector<NodeId> released;
  std::vector<NodeId> quarantined;  ///< fence state after this window's actions

  double benign_latency = 0.0;  ///< mean benign packet latency inside this window
  double benign_p50 = 0.0;
  double benign_p99 = 0.0;
  std::int64_t benign_packets = 0;

  /// Ground truth (scenario-attached runs), the window's Scenario::advance:
  /// attackers whose flooding was on at any cycle of the window and who
  /// were not fenced throughout it — i.e. attack traffic actually reached
  /// the network this window.
  bool truth_attack = false;
  std::vector<NodeId> truth_attackers;
};

/// Aggregate judgment of one run, in the units the campaign tables report.
struct DefenseSummary {
  std::int64_t windows = 0;
  core::Metrics4 detection;    ///< per-window verdicts vs ground truth
  core::Metrics4 attacker_id;  ///< TLM attacker sets vs ground truth (attack windows)

  noc::Cycle first_attack_cycle = -1;  ///< start of the first true attack window
  noc::Cycle detect_cycle = -1;        ///< end of the first true-positive window
  noc::Cycle mitigate_cycle = -1;  ///< end of the first window with every attacker that had flooded so far fenced
  noc::Cycle recover_cycle = -1;       ///< end of the first recovered window after mitigation

  double baseline_latency = 0.0;   ///< mean benign latency over pre-attack windows
  double baseline_p50 = 0.0;
  double baseline_p99 = 0.0;
  double peak_latency = 0.0;       ///< worst windowed benign latency observed
  double recovered_latency = 0.0;  ///< benign latency in the recovering window

  /// Fence accounting (the serving SLO's cost side). A *fence event* is one
  /// node entering quarantine (a WindowRecord::newly_quarantined entry); a
  /// *false fence* is a fence event on a node that had never flooded up to
  /// and including that window — judged against the cumulative ground-truth
  /// attacker set, not the per-window one, so fencing a periodic attacker
  /// during its dormant phase is correctly NOT counted as false. The
  /// false-fence *rate* is normalized per monitoring window (events per
  /// window), which makes soak runs of different lengths comparable.
  std::int64_t fence_events = 0;
  std::int64_t false_fence_events = 0;
  [[nodiscard]] double false_fence_rate() const noexcept {
    return windows > 0 ? static_cast<double>(false_fence_events) / static_cast<double>(windows)
                       : 0.0;
  }

  [[nodiscard]] bool mitigated() const noexcept { return mitigate_cycle >= 0; }
  [[nodiscard]] bool recovered() const noexcept { return recover_cycle >= 0; }
  /// Cycles from first attack traffic to full mitigation (-1 when never).
  [[nodiscard]] noc::Cycle time_to_mitigate() const noexcept {
    return mitigated() ? mitigate_cycle - first_attack_cycle : -1;
  }
  /// End-to-end detection latency: cycles from the first attack traffic to
  /// the end of the first true-positive window (-1 when never detected).
  [[nodiscard]] noc::Cycle detection_latency() const noexcept {
    return (detect_cycle >= 0 && first_attack_cycle >= 0) ? detect_cycle - first_attack_cycle
                                                          : -1;
  }
};

class DefenseRuntime {
 public:
  /// `sim` and `engine` are borrowed and must outlive the runtime. The
  /// runtime owns its own PipelineSession, so any number of runtimes (one
  /// per worker, say) can share one engine. Throws std::invalid_argument
  /// when the engine's mesh differs from sim's (sampled frames would
  /// overrun the session's arenas) or when cfg.window_cycles < 1 (every
  /// window would simulate nothing).
  DefenseRuntime(traffic::Simulation& sim, const core::PipelineEngine& engine,
                 DefenseConfig cfg = {});

  /// Optional: attach the scenario driving the attack. Enables ground-truth
  /// scoring and lets the runtime advance the scenario's dynamics. Borrowed.
  void attach_scenario(Scenario* scenario) { scenario_ = scenario; }

  /// Run one monitoring window end to end; returns a copy of the record
  /// (the full sequence stays in history()).
  WindowRecord run_window();
  void run_windows(std::int32_t count);

  [[nodiscard]] const std::vector<WindowRecord>& history() const noexcept { return history_; }

  [[nodiscard]] DefenseSummary summarize() const;

 private:
  void update_mitigation(const core::RoundResult& round, WindowRecord& rec);

  traffic::Simulation& sim_;
  core::PipelineSession session_;  ///< per-runtime scratch over the shared engine
  DefenseConfig cfg_;
  monitor::FeatureSampler sampler_;
  Scenario* scenario_ = nullptr;
  /// Sliding window-sequence buffer feeding the temporal head (length 1
  /// when the engine has none — the newest window is read back from it
  /// either way, so both paths share one sampling flow).
  monitor::WindowHistory windows_;

  std::vector<std::int32_t> clean_streak_;  ///< per-node consecutive unimplicated windows while fenced
  std::int32_t temporal_cooldown_ = 0;      ///< sequence-verdict suppression windows left
  std::vector<WindowRecord> history_;

  // Benign-stats snapshot at the last window boundary (for windowed deltas).
  double prev_benign_sum_ = 0.0;
  std::int64_t prev_benign_count_ = 0;
  std::vector<std::int64_t> prev_hist_;
};

}  // namespace dl2f::runtime
