#include "core/localizer.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "nn/train.hpp"

namespace dl2f::core {

DoSLocalizer::DoSLocalizer(const LocalizerConfig& cfg) : cfg_(cfg) {
  assert(cfg.conv_layers >= 2);
  std::int32_t in_ch = 1;
  for (std::int32_t l = 0; l + 1 < cfg.conv_layers; ++l) {
    model_.emplace<nn::Conv2D>(in_ch, cfg.filters, cfg.kernel, nn::Padding::Same);
    model_.emplace<nn::ReLU>();
    in_ch = cfg.filters;
  }
  model_.emplace<nn::Conv2D>(in_ch, 1, cfg.kernel, nn::Padding::Same);
  model_.emplace<nn::Sigmoid>();
}

nn::Tensor3 DoSLocalizer::preprocess(const Frame& frame) const {
  if (cfg_.feature == Feature::Boc) {
    return nn::Tensor3::from_frame(frame.normalized());
  }
  return nn::Tensor3::from_frame(frame);
}

void DoSLocalizer::preprocess_into(const Frame& frame, nn::Tensor4& batch,
                                   std::int32_t slot) const {
  const auto& data = frame.data();
  assert(data.size() == batch.sample_size());
  float* dst = batch.sample(slot);
  std::copy(data.begin(), data.end(), dst);
  if (cfg_.feature == Feature::Boc) {
    // Per-frame max normalization, as Frame::normalized() does.
    const float m = frame.max_value();
    if (m > 0.0F) {
      for (std::size_t i = 0; i < data.size(); ++i) dst[i] /= m;
    }
  }
}

namespace {

/// One localizer training item per (sample, direction) pair.
struct LocalizerItem {
  const Frame* input;
  const Frame* mask;
};

std::vector<LocalizerItem> localizer_items(const DoSLocalizer& localizer,
                                           const monitor::Dataset& data) {
  std::vector<LocalizerItem> items;
  const auto feature = localizer.config().feature;
  for (const auto& s : data.samples) {
    const auto& frames = feature == Feature::Vco ? s.vco : s.boc;
    for (Direction d : kMeshDirections) {
      items.push_back(
          LocalizerItem{&monitor::frame_of(frames, d), &monitor::frame_of(s.port_truth, d)});
    }
  }
  return items;
}

}  // namespace

LocalizerTrainReport train_localizer(DoSLocalizer& localizer, const monitor::Dataset& data,
                                     const LocalizerTrainConfig& cfg) {
  Rng rng(cfg.seed);
  localizer.model().init_weights(rng);
  nn::Adam optimizer(localizer.model().params(), cfg.learning_rate);
  const std::vector<LocalizerItem> items = localizer_items(localizer, data);

  nn::BatchTrainConfig bt;
  bt.epochs = cfg.epochs;
  bt.batch_size = cfg.batch_size;
  bt.threads = cfg.threads;

  LocalizerTrainReport report;
  const auto stage = [&](std::size_t item, nn::Tensor4& input, std::int32_t slot) {
    localizer.preprocess_into(*items[item].input, input, slot);
  };
  const auto loss = [&](std::size_t item, const float* pred, std::size_t n,
                        float* grad) -> nn::ItemLoss {
    const float* target = items[item].mask->data().data();
    nn::ItemLoss r;
    r.loss = nn::bce_loss_into(pred, target, n, cfg.positive_weight, grad);
    r.loss += cfg.dice_weight * nn::dice_loss_add(pred, target, n, cfg.dice_weight, grad);
    r.metric = nn::dice_score_raw(pred, target, n);
    return r;
  };
  const auto on_epoch = [&](std::int32_t /*epoch*/, float mean_loss, double mean_dice) {
    report.final_loss = mean_loss;
    report.final_dice = mean_dice;
    ++report.epochs_run;
  };
  nn::batch_train(localizer.model(), optimizer, localizer.input_shape(), items.size(), stage,
                  loss, bt, rng, on_epoch);
  return report;
}

LocalizerTrainReport train_localizer_reference(DoSLocalizer& localizer,
                                               const monitor::Dataset& data,
                                               const LocalizerTrainConfig& cfg) {
  Rng rng(cfg.seed);
  localizer.model().init_weights(rng);
  nn::Adam optimizer(localizer.model().params(), cfg.learning_rate);
  const std::vector<LocalizerItem> items = localizer_items(localizer, data);

  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);

  LocalizerTrainReport report;
  for (std::int32_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    float epoch_loss = 0.0F;
    double epoch_dice = 0.0;
    std::int32_t in_batch = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const LocalizerItem& item = items[order[i]];
      const nn::Tensor3 out = localizer.model().forward(localizer.preprocess(*item.input));
      const nn::Tensor3 target = nn::Tensor3::from_frame(*item.mask);
      auto bce = nn::bce_loss(out, target, cfg.positive_weight);
      const auto dice = nn::dice_loss(out, target);
      epoch_loss += bce.loss + cfg.dice_weight * dice.loss;
      epoch_dice += nn::dice_score(out, target);
      for (std::size_t j = 0; j < bce.grad.size(); ++j) {
        bce.grad.data()[j] += cfg.dice_weight * dice.grad.data()[j];
      }
      localizer.model().backward(bce.grad);
      if (++in_batch == cfg.batch_size || i + 1 == order.size()) {
        optimizer.step();
        in_batch = 0;
      }
    }
    const auto n = static_cast<float>(std::max<std::size_t>(order.size(), 1));
    report.final_loss = epoch_loss / n;
    report.final_dice = epoch_dice / n;
    ++report.epochs_run;
  }
  return report;
}

}  // namespace dl2f::core
