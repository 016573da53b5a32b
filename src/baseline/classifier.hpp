// Baseline detectors for the Table 4 comparison: the perceptron of
// Sniffer [2], the SVM of [13] and an XGBoost-style boosted-stump
// classifier standing in for [8]. All train on exactly the same flattened
// feature frames as the CNN detector, so the comparison isolates the
// model, not the data. Each runs with one fixed set of hyperparameters
// (classifier.cpp), as Table 4 compares one configuration of each.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"

namespace dl2f::baseline {

struct LabeledData {
  std::vector<std::vector<float>> x;
  std::vector<std::int32_t> y;  ///< 0 = benign, 1 = attack

  [[nodiscard]] std::size_t size() const noexcept { return x.size(); }
  [[nodiscard]] std::size_t feature_dim() const noexcept {
    return x.empty() ? 0 : x.front().size();
  }
};

class BinaryClassifier {
 public:
  virtual ~BinaryClassifier() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  virtual void fit(const LabeledData& data) = 0;
  /// Signed decision value; > 0 predicts attack.
  [[nodiscard]] virtual double decision(const std::vector<float>& x) const = 0;

  [[nodiscard]] bool predict(const std::vector<float>& x) const { return decision(x) > 0.0; }
};

[[nodiscard]] ConfusionMatrix evaluate_classifier(const BinaryClassifier& clf,
                                                  const LabeledData& data);

/// Rosenblatt perceptron with averaged weights (the distributed model of
/// Sniffer [2], trained here as a single global instance).
class Perceptron final : public BinaryClassifier {
 public:
  [[nodiscard]] std::string name() const override { return "Perceptron"; }
  void fit(const LabeledData& data) override;
  [[nodiscard]] double decision(const std::vector<float>& x) const override;

 private:
  std::vector<double> w_;
  double b_ = 0.0;
};

/// Linear SVM trained with Pegasos-style SGD on the hinge loss [13].
class LinearSvm final : public BinaryClassifier {
 public:
  [[nodiscard]] std::string name() const override { return "SVM"; }
  void fit(const LabeledData& data) override;
  [[nodiscard]] double decision(const std::vector<float>& x) const override;

 private:
  std::vector<double> w_;
  double b_ = 0.0;
};

/// Gradient-boosted decision stumps with logistic loss — the spirit of the
/// XGBoost classifier of [8] without the full tree machinery (depth-1
/// trees, shrinkage, no column sampling).
class BoostedStumps final : public BinaryClassifier {
 public:
  [[nodiscard]] std::string name() const override { return "XGB-lite"; }
  void fit(const LabeledData& data) override;
  [[nodiscard]] double decision(const std::vector<float>& x) const override;

 private:
  struct Stump {
    std::int32_t feature = 0;
    float threshold = 0.0F;
    double left = 0.0;   ///< value when x[feature] <= threshold
    double right = 0.0;  ///< value when x[feature] >  threshold
  };
  double base_score_ = 0.0;
  std::vector<Stump> stumps_;
};

}  // namespace dl2f::baseline
