#include "baseline/classifier.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace dl2f::baseline {

ConfusionMatrix evaluate_classifier(const BinaryClassifier& clf, const LabeledData& data) {
  ConfusionMatrix cm;
  for (std::size_t i = 0; i < data.size(); ++i) {
    cm.add(clf.predict(data.x[i]), data.y[i] != 0);
  }
  return cm;
}

namespace {

// Fixed hyperparameters; the float ones widen to double where they scale
// a double update, so their float type is part of Table 4's output.
constexpr std::int32_t kPerceptronEpochs = 50;
constexpr float kPerceptronLearningRate = 0.1F;
constexpr std::uint64_t kPerceptronSeed = 7;
constexpr std::int32_t kSvmEpochs = 60;
constexpr double kSvmLambda = 1e-4;  ///< L2 regularization strength
constexpr std::uint64_t kSvmSeed = 11;
constexpr std::int32_t kStumpRounds = 40;
constexpr float kStumpShrinkage = 0.3F;
constexpr std::int32_t kStumpThresholdCandidates = 16;  ///< quantile splits per feature

double dot(const std::vector<double>& w, const std::vector<float>& x) {
  assert(w.size() == x.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) acc += w[i] * static_cast<double>(x[i]);
  return acc;
}

}  // namespace

// ------------------------------------------------------------ Perceptron

void Perceptron::fit(const LabeledData& data) {
  w_.assign(data.feature_dim(), 0.0);
  b_ = 0.0;
  std::vector<double> avg_w(data.feature_dim(), 0.0);
  double avg_b = 0.0;

  Rng rng(kPerceptronSeed);
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  for (std::int32_t epoch = 0; epoch < kPerceptronEpochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    for (std::size_t i : order) {
      const double target = data.y[i] != 0 ? 1.0 : -1.0;
      if (target * (dot(w_, data.x[i]) + b_) <= 0.0) {
        for (std::size_t j = 0; j < w_.size(); ++j) {
          w_[j] += kPerceptronLearningRate * target * static_cast<double>(data.x[i][j]);
        }
        b_ += kPerceptronLearningRate * target;
      }
      for (std::size_t j = 0; j < w_.size(); ++j) avg_w[j] += w_[j];
      avg_b += b_;
    }
  }
  // Averaged perceptron: the running mean of the weight trajectory is far
  // more stable on non-separable data than the final iterate.
  const auto updates = static_cast<double>(data.size()) * kPerceptronEpochs;
  if (updates > 0.0) {
    for (std::size_t j = 0; j < w_.size(); ++j) w_[j] = avg_w[j] / updates;
    b_ = avg_b / updates;
  }
}

double Perceptron::decision(const std::vector<float>& x) const { return dot(w_, x) + b_; }

// -------------------------------------------------------------- LinearSvm

void LinearSvm::fit(const LabeledData& data) {
  w_.assign(data.feature_dim(), 0.0);
  b_ = 0.0;
  Rng rng(kSvmSeed);
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  std::int64_t t = 0;
  for (std::int32_t epoch = 0; epoch < kSvmEpochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    for (std::size_t i : order) {
      ++t;
      const double eta = 1.0 / (kSvmLambda * static_cast<double>(t));
      const double target = data.y[i] != 0 ? 1.0 : -1.0;
      const double margin = target * (dot(w_, data.x[i]) + b_);
      for (std::size_t j = 0; j < w_.size(); ++j) w_[j] *= 1.0 - eta * kSvmLambda;
      if (margin < 1.0) {
        for (std::size_t j = 0; j < w_.size(); ++j) {
          w_[j] += eta * target * static_cast<double>(data.x[i][j]);
        }
        b_ += eta * target;
      }
    }
  }
}

double LinearSvm::decision(const std::vector<float>& x) const { return dot(w_, x) + b_; }

// ----------------------------------------------------------- BoostedStumps

void BoostedStumps::fit(const LabeledData& data) {
  stumps_.clear();
  const auto n = data.size();
  const auto dims = data.feature_dim();
  if (n == 0 || dims == 0) return;

  // Log-odds prior.
  const auto pos = static_cast<double>(std::count(data.y.begin(), data.y.end(), 1));
  const double p = std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
  base_score_ = std::log(p / (1.0 - p));

  // Quantile threshold candidates per feature.
  std::vector<std::vector<float>> candidates(dims);
  {
    std::vector<float> column(n);
    for (std::size_t j = 0; j < dims; ++j) {
      for (std::size_t i = 0; i < n; ++i) column[i] = data.x[i][j];
      std::sort(column.begin(), column.end());
      for (std::int32_t q = 1; q <= kStumpThresholdCandidates; ++q) {
        const auto idx = static_cast<std::size_t>(
            static_cast<double>(n - 1) * q / (kStumpThresholdCandidates + 1));
        candidates[j].push_back(column[idx]);
      }
      candidates[j].erase(std::unique(candidates[j].begin(), candidates[j].end()),
                          candidates[j].end());
    }
  }

  std::vector<double> score(n, base_score_);
  for (std::int32_t round = 0; round < kStumpRounds; ++round) {
    // Gradient/hessian of logistic loss at the current scores.
    std::vector<double> grad(n), hess(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double prob = 1.0 / (1.0 + std::exp(-score[i]));
      grad[i] = prob - (data.y[i] != 0 ? 1.0 : 0.0);
      hess[i] = std::max(prob * (1.0 - prob), 1e-9);
    }

    // Greedy best stump: maximize the usual gain G_l^2/H_l + G_r^2/H_r.
    Stump best;
    double best_gain = -1.0;
    const double g_total = std::accumulate(grad.begin(), grad.end(), 0.0);
    const double h_total = std::accumulate(hess.begin(), hess.end(), 0.0);
    for (std::size_t j = 0; j < dims; ++j) {
      for (const float thr : candidates[j]) {
        double gl = 0.0, hl = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          if (data.x[i][j] <= thr) {
            gl += grad[i];
            hl += hess[i];
          }
        }
        const double gr = g_total - gl;
        const double hr = h_total - hl;
        if (hl < 1e-9 || hr < 1e-9) continue;
        const double gain = gl * gl / hl + gr * gr / hr;
        if (gain > best_gain) {
          best_gain = gain;
          best.feature = static_cast<std::int32_t>(j);
          best.threshold = thr;
          best.left = -gl / hl;
          best.right = -gr / hr;
        }
      }
    }
    if (best_gain <= 0.0) break;

    best.left *= kStumpShrinkage;
    best.right *= kStumpShrinkage;
    stumps_.push_back(best);
    for (std::size_t i = 0; i < n; ++i) {
      score[i] += data.x[i][static_cast<std::size_t>(best.feature)] <= best.threshold
                      ? best.left
                      : best.right;
    }
  }
}

double BoostedStumps::decision(const std::vector<float>& x) const {
  double s = base_score_;
  for (const auto& st : stumps_) {
    s += x[static_cast<std::size_t>(st.feature)] <= st.threshold ? st.left : st.right;
  }
  return s;
}

}  // namespace dl2f::baseline
