// Losses: binary cross-entropy for the detector, soft Dice for the
// localizer ("with feedback from dice accuracy, the model can refine its
// parameters", §3.2). The kernels the trainers run: each operates on `n`
// contiguous floats, returns the scalar loss and writes (or adds) the
// gradient w.r.t. the prediction into a caller-owned slot (a nn::Tensor4
// loss-grad sample), so the training hot path never allocates.
#pragma once

#include <cstddef>

namespace dl2f::nn {

/// Mean binary cross-entropy over n elements. Predictions are sigmoid
/// outputs in (0,1), clamped away from {0,1} for stability; target-1
/// elements are weighted by `weight`, the class weight of imbalanced
/// segmentation masks. Writes dLoss/dPred into grad.
[[nodiscard]] float bce_loss_into(const float* prediction, const float* target, std::size_t n,
                                  float weight, float* grad);

/// Soft Dice loss over n elements, 1 - (2*sum(p*t) + eps) / (sum(p) +
/// sum(t) + eps); ADDS dLoss/dPred into grad (the localizer combines it
/// with a BCE gradient already staged there).
[[nodiscard]] float dice_loss_add(const float* prediction, const float* target, std::size_t n,
                                  float* grad);

/// Dice coefficient of binarized prediction vs binary target (metric, not
/// a loss; the paper's "dice accuracy").
[[nodiscard]] double dice_score_raw(const float* prediction, const float* target, std::size_t n,
                                    float threshold = 0.5F);

}  // namespace dl2f::nn
