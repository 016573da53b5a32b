#include "core/evaluation.hpp"

#include <algorithm>

namespace dl2f::core {

Metrics4 detection_metrics(const ConfusionMatrix& cm) {
  return Metrics4{cm.accuracy(), cm.precision(), cm.recall(), cm.f1()};
}

void LocalizationScore::add(const std::vector<NodeId>& predicted,
                            const std::vector<NodeId>& truth) {
  // Both vectors are sorted/deduplicated by their producers; enforce here
  // so set algebra stays correct for arbitrary callers.
  std::vector<NodeId> p = predicted;
  std::vector<NodeId> t = truth;
  std::sort(p.begin(), p.end());
  p.erase(std::unique(p.begin(), p.end()), p.end());
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());

  std::vector<NodeId> inter;
  std::set_intersection(p.begin(), p.end(), t.begin(), t.end(), std::back_inserter(inter));
  tp_ += static_cast<std::int64_t>(inter.size());
  fp_ += static_cast<std::int64_t>(p.size() - inter.size());
  fn_ += static_cast<std::int64_t>(t.size() - inter.size());
}

Metrics4 LocalizationScore::metrics() const noexcept {
  Metrics4 m;
  const auto union_size = tp_ + fp_ + fn_;
  m.accuracy = union_size == 0 ? 1.0 : static_cast<double>(tp_) / static_cast<double>(union_size);
  m.precision = (tp_ + fp_) == 0 ? 1.0 : static_cast<double>(tp_) / static_cast<double>(tp_ + fp_);
  m.recall = (tp_ + fn_) == 0 ? 1.0 : static_cast<double>(tp_) / static_cast<double>(tp_ + fn_);
  m.f1 = (m.precision + m.recall) == 0.0
             ? 0.0
             : 2.0 * m.precision * m.recall / (m.precision + m.recall);
  return m;
}

BenchmarkScore score_benchmark(const PipelineEngine& engine, const std::string& name,
                               const monitor::Dataset& test) {
  BenchmarkScore score;
  score.benchmark = name;

  // One batched detector pass over every window; the localizer then runs
  // exactly once per attack window (the tables score localization
  // independently of the detector verdict, and localizing detected benign
  // windows would be discarded work).
  PipelineSession session(engine);
  const std::vector<float> probs = session.detect_batch(test.windows());
  const float threshold = engine.config().detector.threshold;

  ConfusionMatrix detection;
  LocalizationScore localization;
  for (std::size_t i = 0; i < test.samples.size(); ++i) {
    const auto& sample = test.samples[i];
    detection.add(probs[i] > threshold, sample.under_attack);
    if (sample.under_attack) {
      const RoundResult r = session.localize(sample);
      localization.add(r.victims, sample.victim_truth);
    }
  }
  score.detection = detection_metrics(detection);
  score.localization = localization.metrics();
  return score;
}

BenchmarkScore average_scores(const std::vector<BenchmarkScore>& scores,
                              const std::string& label) {
  BenchmarkScore avg;
  avg.benchmark = label;
  if (scores.empty()) return avg;
  const auto n = static_cast<double>(scores.size());
  for (const auto& s : scores) {
    avg.detection.accuracy += s.detection.accuracy / n;
    avg.detection.precision += s.detection.precision / n;
    avg.detection.recall += s.detection.recall / n;
    avg.detection.f1 += s.detection.f1 / n;
    avg.localization.accuracy += s.localization.accuracy / n;
    avg.localization.precision += s.localization.precision / n;
    avg.localization.recall += s.localization.recall / n;
    avg.localization.f1 += s.localization.f1 / n;
  }
  return avg;
}

}  // namespace dl2f::core
