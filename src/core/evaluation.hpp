// Scoring conventions of the paper's Tables 1-4.
//
// Detection is a per-window binary classification (standard confusion-
// matrix metrics). Localization is scored over node sets: for each attack
// window the predicted victim set is compared against the ground-truth
// routing-path-victim set; "accuracy" is TP / (TP + FP + FN) — the Jaccard
// index over the union, which reproduces the paper's Fig. 4 examples
// (e.g. 24 of 25 route nodes found, none spurious => accuracy 0.96,
// precision 1, recall 0.96) — true negatives (the vast benign majority of
// nodes) are excluded, otherwise every accuracy would sit at ~0.999.
#pragma once

#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "core/pipeline.hpp"

namespace dl2f::core {

struct Metrics4 {
  double accuracy = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

[[nodiscard]] Metrics4 detection_metrics(const ConfusionMatrix& cm);

/// Accumulates set-level localization counts across attack windows.
class LocalizationScore {
 public:
  void add(const std::vector<NodeId>& predicted, const std::vector<NodeId>& truth);

  [[nodiscard]] Metrics4 metrics() const noexcept;

 private:
  std::int64_t tp_ = 0, fp_ = 0, fn_ = 0;
};

/// One table column: detection + localization metrics for one benchmark.
struct BenchmarkScore {
  std::string benchmark;
  Metrics4 detection;
  Metrics4 localization;
};

/// Score a trained engine on one benchmark's test set: detection over all
/// windows (batched through PipelineSession::process_batch), localization
/// over the attack windows (detector-independent, as the tables require).
[[nodiscard]] BenchmarkScore score_benchmark(const PipelineEngine& engine,
                                             const std::string& name,
                                             const monitor::Dataset& test);

/// Unweighted average across benchmark columns (the tables' Average column).
[[nodiscard]] BenchmarkScore average_scores(const std::vector<BenchmarkScore>& scores,
                                            const std::string& label);

}  // namespace dl2f::core
