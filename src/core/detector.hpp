// Stage i of DL2Fence: the DoS Detector — a CNN classifier over the four
// directional feature frames (Fig. 2, left).
//
// Architecture (for an R x R mesh, frames R x (R-1)):
//   Input 4ch R x (R-1)
//   -> Conv2D(3x3, 8 filters, valid) + ReLU     -> 8ch (R-2) x (R-3)
//   -> MaxPool2D(2x2)                           -> 8ch floor/2
//   -> Flatten -> Dense(1) -> Sigmoid           -> P(DoS)
//
// For R = 16 this reproduces the paper's printed shapes: conv output
// 14 x 13 x 8 and pooled output 7 x 6 x 8 ("(R-9) x (R-10) x 8"). The
// kernel, filter count and pool are constants of the architecture, not
// configuration: only the mesh, input feature and threshold vary.
#pragma once

#include <span>

#include "core/feature.hpp"
#include "monitor/dataset.hpp"
#include "nn/model.hpp"
#include "nn/train.hpp"

namespace dl2f::core {

/// Stack `feature`'s four directional frames of `sample`, in
/// kMeshDirections order, into `dst`; BOC is divided by the global max
/// across all four frames so inter-direction contrast survives (§4). The
/// one staging rule of the detector's input and of Table 4's baselines
/// (baseline::to_labeled_data), so both score the same values.
void stack_frames(const monitor::FrameSample& sample, Feature feature, std::span<float> dst);

struct DetectorConfig {
  MeshShape mesh = MeshShape::square(16);
  Feature feature = Feature::Vco;
  float threshold = 0.5F;  ///< sigmoid output above this flags DoS
};

class DoSDetector {
 public:
  explicit DoSDetector(const DetectorConfig& cfg);

  [[nodiscard]] const DetectorConfig& config() const noexcept { return cfg_; }

  /// stack_frames of the configured feature into slot `slot` of a staged
  /// input batch, one frame per channel (allocation-free).
  void preprocess_into(const monitor::FrameSample& sample, nn::Tensor4& batch,
                       std::int32_t slot) const;

  /// CNN input shape: kNumMeshDirections channels of R x (R-1) frames.
  [[nodiscard]] nn::Tensor3 input_shape() const {
    return nn::Tensor3(static_cast<std::int32_t>(kNumMeshDirections), cfg_.mesh.rows(),
                       cfg_.mesh.cols() - 1);
  }

  [[nodiscard]] nn::Sequential& model() noexcept { return model_; }
  [[nodiscard]] const nn::Sequential& model() const noexcept { return model_; }

 private:
  DetectorConfig cfg_;
  nn::Sequential model_;
};

/// Train with BCE on the attack label through nn::train (Adam at learning
/// rate 1e-3, minibatches of nn::kBatchSize): weights are byte-identical
/// for a given cfg.seed at any cfg.threads. Throws std::invalid_argument,
/// before training, for a window from another mesh (monitor::check_window).
nn::TrainReport train_detector(DoSDetector& detector, const monitor::Dataset& data,
                               const nn::TrainConfig& cfg);

}  // namespace dl2f::core
