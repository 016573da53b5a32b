// Stage ii of DL2Fence: the DoS Profile Localizer — a CNN segmentation
// model run on each abnormal directional feature frame (Fig. 2, middle).
//
// Architecture (Same padding keeps the R x (R-1) frame size):
//   Input 1ch R x (R-1)
//   -> Conv2D(3x3, 8, same) + ReLU   ("Conv2d-10", 1st convolutional frames)
//   -> Conv2D(3x3, 8, same) + ReLU   ("Conv2d-11", 2nd convolutional frames)
//   -> Conv2D(3x3, 1, same) + Sigmoid ("Conv2d-12", segmentation results)
//
// The three 3x3 layers are constants of the architecture; only the hidden
// layers' filter count (8 in the paper; bench_ablation sweeps it) is
// configuration. Trained with Dice feedback plus pixel BCE that weighs
// route pixels 8x, for gradient signal on the heavily benign-skewed masks
// (a flooding route covers <10% of a frame).
#pragma once

#include "core/feature.hpp"
#include "monitor/dataset.hpp"
#include "nn/model.hpp"
#include "nn/train.hpp"

namespace dl2f::core {

struct LocalizerConfig {
  MeshShape mesh = MeshShape::square(16);
  Feature feature = Feature::Boc;
  std::int32_t filters = 8;  ///< filters of the two hidden conv layers
  float threshold = 0.5F;    ///< binarization threshold on sigmoid output
};

class DoSLocalizer {
 public:
  explicit DoSLocalizer(const LocalizerConfig& cfg);

  [[nodiscard]] const LocalizerConfig& config() const noexcept { return cfg_; }

  /// Stage one directional frame as slot `slot` of a staged input batch
  /// (allocation-free); BOC is normalized to [0,1] per frame, VCO passes
  /// through raw (§4).
  void preprocess_into(const Frame& frame, nn::Tensor4& batch, std::int32_t slot) const;

  /// CNN input shape: one channel of R x (R-1).
  [[nodiscard]] nn::Tensor3 input_shape() const {
    return nn::Tensor3(1, cfg_.mesh.rows(), cfg_.mesh.cols() - 1);
  }

  [[nodiscard]] nn::Sequential& model() noexcept { return model_; }
  [[nodiscard]] const nn::Sequential& model() const noexcept { return model_; }

 private:
  LocalizerConfig cfg_;
  nn::Sequential model_;
};

/// Train on every directional frame of every sample (attack directions
/// against their port-truth masks; benign/uninvolved directions against
/// all-zero masks, which teaches suppression) through nn::train: Adam at
/// learning rate 3e-3, minibatches of nn::kBatchSize, loss = route-weighted
/// BCE + Dice. The report's final_metric is the mean dice score over the
/// training frames. Weights are byte-identical for a given cfg.seed at
/// any cfg.threads. Throws std::invalid_argument, before training, for a
/// window from another mesh (monitor::check_window) or one without
/// port-truth masks of the model's mesh.
nn::TrainReport train_localizer(DoSLocalizer& localizer, const monitor::Dataset& data,
                                const nn::TrainConfig& cfg);

}  // namespace dl2f::core
