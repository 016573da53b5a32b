// Stage ii of DL2Fence: the DoS Profile Localizer — a CNN segmentation
// model run on each abnormal directional feature frame (Fig. 2, middle).
//
// Architecture (Same padding keeps the R x (R-1) frame size):
//   Input 1ch R x (R-1)
//   -> Conv2D(3x3, 8, same) + ReLU   ("Conv2d-10", 1st convolutional frames)
//   -> Conv2D(3x3, 8, same) + ReLU   ("Conv2d-11", 2nd convolutional frames)
//   -> Conv2D(3x3, 1, same) + Sigmoid ("Conv2d-12", segmentation results)
//
// Trained with Dice feedback (plus pixel BCE for gradient signal on the
// heavily benign-skewed masks).
#pragma once

#include "core/feature.hpp"
#include "monitor/dataset.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"

namespace dl2f::core {

struct LocalizerConfig {
  MeshShape mesh = MeshShape::square(16);
  Feature feature = Feature::Boc;
  std::int32_t kernel = 3;
  std::int32_t filters = 8;
  std::int32_t conv_layers = 3;  ///< >= 2; last layer always maps to 1 channel
  float threshold = 0.5F;        ///< binarization threshold on sigmoid output
};

class DoSLocalizer {
 public:
  explicit DoSLocalizer(const LocalizerConfig& cfg);

  [[nodiscard]] const LocalizerConfig& config() const noexcept { return cfg_; }

  /// Single-channel tensor of one directional frame; BOC is normalized to
  /// [0,1] per frame, VCO passes through raw (§4).
  [[nodiscard]] nn::Tensor3 preprocess(const Frame& frame) const;

  /// Allocation-free preprocess of one directional frame into slot `slot`
  /// of a staged input batch. Identical values to preprocess().
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

struct LocalizerTrainConfig {
  std::int32_t epochs = 40;
  std::int32_t batch_size = 8;
  float learning_rate = 3e-3F;
  float dice_weight = 1.0F;     ///< loss = weighted BCE + dice_weight * Dice
  float positive_weight = 8.0F; ///< BCE class weight for route pixels (<10% of a frame)
  std::uint64_t seed = 43;
  /// Data-parallel training workers (nn::batch_train). Trained weights are
  /// byte-identical for a given seed at ANY thread count.
  std::int32_t threads = 1;
};

struct LocalizerTrainReport {
  float final_loss = 0.0F;
  double final_dice = 0.0;  ///< mean dice score over the training frames
  std::int32_t epochs_run = 0;
};

/// Train on every directional frame of every sample (attack directions
/// against their port-truth masks; benign/uninvolved directions against
/// all-zero masks, which teaches suppression), on the batched GEMM path
/// (nn::batch_train) with deterministic sliced gradient reduction across
/// cfg.threads workers.
LocalizerTrainReport train_localizer(DoSLocalizer& localizer, const monitor::Dataset& data,
                                     const LocalizerTrainConfig& cfg);

/// The pre-batching per-sample trainer, retained as the golden reference
/// for bench_train — cfg.threads is ignored.
LocalizerTrainReport train_localizer_reference(DoSLocalizer& localizer,
                                               const monitor::Dataset& data,
                                               const LocalizerTrainConfig& cfg);

}  // namespace dl2f::core
