// Losses: binary cross-entropy for the detector, soft Dice for the
// localizer ("with feedback from dice accuracy, the model can refine its
// parameters", §3.2). Each returns the scalar loss and writes the gradient
// w.r.t. the prediction tensor.
#pragma once

#include "nn/tensor.hpp"

namespace dl2f::nn {

struct LossResult {
  float loss = 0.0F;
  Tensor3 grad;  ///< dLoss/dPrediction, same shape as the prediction
};

/// Mean binary cross-entropy over all elements. Predictions are sigmoid
/// outputs in (0,1); values are clamped away from {0,1} for stability.
/// `weight` scales the loss of target-1 elements, the class weight of
/// imbalanced segmentation masks.
[[nodiscard]] LossResult bce_loss(const Tensor3& prediction, const Tensor3& target,
                                  float weight = 1.0F);

/// Soft Dice loss: 1 - (2*sum(p*t) + eps) / (sum(p) + sum(t) + eps).
[[nodiscard]] LossResult dice_loss(const Tensor3& prediction, const Tensor3& target);

/// Dice coefficient of binarized prediction vs binary target (metric, not
/// a loss; the paper's "dice accuracy").
[[nodiscard]] double dice_score(const Tensor3& prediction, const Tensor3& target,
                                float threshold = 0.5F);

// Raw-buffer kernels: the math the batched training path runs, and the
// Tensor3 versions above wrap. They operate on `n` contiguous floats with
// the gradient written into a caller-owned slot (a nn::Tensor4 loss-grad
// sample) — no allocation on the training hot path.

/// Mean BCE over n elements, target-1 elements weighted by `weight`;
/// writes dLoss/dPred into grad.
[[nodiscard]] float bce_loss_into(const float* prediction, const float* target, std::size_t n,
                                  float weight, float* grad);

/// Soft Dice loss over n elements; ADDS dLoss/dPred into grad (the
/// localizer combines it with a BCE gradient already staged there).
[[nodiscard]] float dice_loss_add(const float* prediction, const float* target, std::size_t n,
                                  float* grad);

/// Dice coefficient of binarized prediction vs binary target.
[[nodiscard]] double dice_score_raw(const float* prediction, const float* target, std::size_t n,
                                    float threshold = 0.5F);

}  // namespace dl2f::nn
