// Adaptive-attacker robustness matrix: per (scenario family × benign
// workload) aggregation of a three-axis campaign.
//
// The evasive families (pulse, stealth-ramp, colluding, mimicry: the
// traffic/fdos.hpp schedules a runtime::Scenario drives) are the first
// workload where the detector is *expected* to partially fail — this
// report is the artifact that shows where. Each cell averages the seeds of one
// (family, workload) grid coordinate into the four questions the defense
// must answer: did we detect (accuracy/F1), did we name the right nodes
// (localization F1), how fast did we fence (time-to-mitigate), and did
// benign latency come back (recovery ratio).
//
// Output is deterministic: a fixed-precision TextTable for humans, a
// family × workload detection-F1 matrix for at-a-glance blind-spot
// scanning, and a machine-readable JSON payload (BENCH_robustness.json,
// emitted by bench/bench_robustness.cpp and gated in CI).
#pragma once

#include <string>
#include <vector>

#include "runtime/campaign.hpp"

namespace dl2f::runtime {

class RobustnessReport {
 public:
  /// CampaignResult::cell for every listed (family, workload), in list
  /// order: the shape never depends on the campaign's content.
  static RobustnessReport from_campaign(const CampaignResult& result,
                                        const std::vector<std::string>& families,
                                        const std::vector<std::string>& workloads);

  /// Family-major, workload-minor; size = families × workloads.
  [[nodiscard]] const std::vector<CampaignCell>& cells() const noexcept { return cells_; }

  /// Cell lookup; nullptr when either axis value is not in the report.
  [[nodiscard]] const CampaignCell* cell(std::string_view family,
                                         std::string_view workload) const;

  /// Full per-cell table: one row per (family, workload) with every metric.
  [[nodiscard]] TextTable table() const;

  /// Detection-F1 matrix (family rows × workload columns) — the
  /// at-a-glance view of where the detector holds and where it fails.
  [[nodiscard]] TextTable detection_matrix() const;

  /// Cells where the detector partially fails: detection F1 below
  /// `detection_f1_floor` (cells with zero jobs are skipped).
  [[nodiscard]] std::vector<const CampaignCell*> blind_spots(
      double detection_f1_floor = 0.5) const;

  /// Machine-readable JSON object (families, workloads, one record per
  /// cell) with fixed key order and fixed precision — byte-identical for
  /// equal campaigns.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<std::string> families_;
  std::vector<std::string> workloads_;
  std::vector<CampaignCell> cells_;
};

}  // namespace dl2f::runtime
