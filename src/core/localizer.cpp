#include "core/localizer.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "nn/layers.hpp"
#include "nn/loss.hpp"

namespace dl2f::core {
namespace {

constexpr std::int32_t kKernel = 3;
constexpr float kLearningRate = 3e-3F;
/// BCE class weight of route pixels, which cover <10% of a frame; an
/// unweighted loss leaves the model in the all-zero basin for dozens of
/// epochs.
constexpr float kRouteWeight = 8.0F;

/// One localizer training item per (sample, direction) pair.
struct LocalizerItem {
  const Frame* input;
  const Frame* mask;
};

}  // namespace

DoSLocalizer::DoSLocalizer(const LocalizerConfig& cfg) : cfg_(cfg) {
  model_.emplace<nn::Conv2D>(1, cfg.filters, kKernel, nn::Padding::Same);
  model_.emplace<nn::ReLU>();
  model_.emplace<nn::Conv2D>(cfg.filters, cfg.filters, kKernel, nn::Padding::Same);
  model_.emplace<nn::ReLU>();
  model_.emplace<nn::Conv2D>(cfg.filters, 1, kKernel, nn::Padding::Same);
  model_.emplace<nn::Sigmoid>();
}

void DoSLocalizer::preprocess_into(const Frame& frame, nn::Tensor4& batch,
                                   std::int32_t slot) const {
  const auto& data = frame.data();
  assert(data.size() == batch.sample_size());
  float* dst = batch.sample(slot);
  std::copy(data.begin(), data.end(), dst);
  if (cfg_.feature == Feature::Boc) {
    // Per-frame max normalization: the frame's maximum becomes 1 (no-op on
    // an all-zero frame).
    const float m = frame.max_value();
    if (m > 0.0F) {
      for (std::size_t i = 0; i < data.size(); ++i) dst[i] /= m;
    }
  }
}

nn::TrainReport train_localizer(DoSLocalizer& localizer, const monitor::Dataset& data,
                                const nn::TrainConfig& cfg) {
  // One item per (sample, direction) frame; route-weighted BCE + Dice
  // against its port-truth mask, with the dice score as the metric.
  std::vector<LocalizerItem> items;
  const auto& mesh = localizer.config().mesh;
  const auto feature = localizer.config().feature;
  const auto fits = [&](const Frame& mask) {
    return mask.rows() == mesh.rows() && mask.cols() == mesh.cols() - 1;
  };
  for (const auto& s : data.samples) {
    monitor::check_window(s, mesh, "train_localizer");
    // The loss reads one mask value per staged pixel; live windows
    // (monitor::sample_window) carry no masks at all.
    if (!std::all_of(s.port_truth.begin(), s.port_truth.end(), fits)) {
      throw std::invalid_argument(
          "train_localizer: window lacks port-truth masks of the model's mesh");
    }
    const auto& frames = feature == Feature::Vco ? s.vco : s.boc;
    for (Direction d : kMeshDirections) {
      items.push_back(
          LocalizerItem{&monitor::frame_of(frames, d), &monitor::frame_of(s.port_truth, d)});
    }
  }
  const auto stage = [&](std::size_t item, nn::Tensor4& input, std::int32_t slot) {
    localizer.preprocess_into(*items[item].input, input, slot);
  };
  const auto loss = [&](std::size_t item, const float* pred, std::size_t n,
                        float* grad) -> nn::ItemLoss {
    const float* target = items[item].mask->data().data();
    nn::ItemLoss r;
    r.loss = nn::bce_loss_into(pred, target, n, kRouteWeight, grad);
    r.loss += nn::dice_loss_add(pred, target, n, grad);
    r.metric = nn::dice_score_raw(pred, target, n);
    return r;
  };
  return nn::train(localizer.model(), localizer.input_shape(), kLearningRate, items.size(), stage,
                   loss, cfg);
}

}  // namespace dl2f::core
