#include "runtime/robustness.hpp"

#include <iomanip>
#include <sstream>

namespace dl2f::runtime {
namespace {

/// JSON-escape for the benchmark/family names we emit (they are plain
/// ASCII today; quotes and backslashes are escaped defensively).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

RobustnessReport RobustnessReport::from_campaign(const CampaignResult& result,
                                                 const std::vector<std::string>& families,
                                                 const std::vector<std::string>& workloads) {
  RobustnessReport report;
  report.families_ = families;
  report.workloads_ = workloads;
  report.cells_.reserve(families.size() * workloads.size());

  for (const auto& family : families) {
    for (const auto& workload : workloads) report.cells_.push_back(result.cell(family, workload));
  }
  return report;
}

const CampaignCell* RobustnessReport::cell(std::string_view family,
                                           std::string_view workload) const {
  for (const auto& c : cells_) {
    if (c.family == family && c.workload == workload) return &c;
  }
  return nullptr;
}

TextTable RobustnessReport::table() const {
  TextTable table({"Family", "Workload", "Jobs", "Det acc", "Det F1", "Loc F1", "Mitigated",
                   "TTM (cyc)", "Recovered", "Rec ratio"});
  for (const auto& c : cells_) {
    // The -1 "never happened" sentinels render as an em dash — visually
    // distinct from both real values and the hyphen used for "no jobs".
    table.add_row({c.family, c.workload, std::to_string(c.jobs),
                   TextTable::cell(c.detection_accuracy), TextTable::cell(c.detection_f1),
                   TextTable::cell(c.localization_f1), TextTable::cell(c.mitigation_rate, 2),
                   c.mean_time_to_mitigate >= 0.0 ? TextTable::cell(c.mean_time_to_mitigate, 0)
                                                  : "—",
                   TextTable::cell(c.recovery_rate, 2),
                   c.mean_recovery_ratio >= 0.0 ? TextTable::cell(c.mean_recovery_ratio, 2)
                                                : "—"});
  }
  return table;
}

TextTable RobustnessReport::detection_matrix() const {
  std::vector<std::string> header{"Det F1"};
  for (const auto& w : workloads_) header.push_back(w);
  TextTable table(std::move(header));
  for (const auto& family : families_) {
    std::vector<std::string> row{family};
    for (const auto& workload : workloads_) {
      const auto* c = cell(family, workload);
      row.push_back(c != nullptr && c->jobs > 0 ? TextTable::cell(c->detection_f1, 2) : "-");
    }
    table.add_row(std::move(row));
  }
  return table;
}

std::vector<const CampaignCell*> RobustnessReport::blind_spots(
    double detection_f1_floor) const {
  std::vector<const CampaignCell*> out;
  for (const auto& c : cells_) {
    if (c.jobs > 0 && c.detection_f1 < detection_f1_floor) out.push_back(&c);
  }
  return out;
}

std::string RobustnessReport::to_json() const {
  // Sentinel convention: mean_time_to_mitigate and mean_recovery_ratio
  // emit -1.000000 for cells where NO job of the cell ever mitigated
  // (resp. recovered) — "never happened", not a measured duration/ratio.
  // Consumers must treat negative values as absent, as the text table()
  // does by rendering them as an em dash. All other fields are plain
  // means over the cell's jobs (0 when jobs == 0).
  std::ostringstream os;
  os << std::fixed << std::setprecision(6);
  os << "{\n    \"families\": [";
  for (std::size_t i = 0; i < families_.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << json_escape(families_[i]) << '"';
  }
  os << "],\n    \"workloads\": [";
  for (std::size_t i = 0; i < workloads_.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << json_escape(workloads_[i]) << '"';
  }
  os << "],\n    \"cells\": [";
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const auto& c = cells_[i];
    os << (i == 0 ? "" : ",") << "\n      {\"family\": \"" << json_escape(c.family)
       << "\", \"workload\": \"" << json_escape(c.workload) << "\", \"jobs\": " << c.jobs
       << ", \"detection_accuracy\": " << c.detection_accuracy
       << ", \"detection_f1\": " << c.detection_f1
       << ", \"localization_f1\": " << c.localization_f1
       << ", \"mitigation_rate\": " << c.mitigation_rate
       << ", \"mean_time_to_mitigate\": " << c.mean_time_to_mitigate
       << ", \"recovery_rate\": " << c.recovery_rate
       << ", \"mean_recovery_ratio\": " << c.mean_recovery_ratio << "}";
  }
  os << "\n    ]\n  }";
  return os.str();
}

}  // namespace dl2f::runtime
