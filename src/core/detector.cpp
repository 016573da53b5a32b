#include "core/detector.hpp"

#include <algorithm>
#include <numeric>

#include "nn/train.hpp"

namespace dl2f::core {

DoSDetector::DoSDetector(const DetectorConfig& cfg) : cfg_(cfg) {
  const auto rows = cfg.mesh.rows();
  const auto cols = cfg.mesh.cols() - 1;
  model_.emplace<nn::Conv2D>(static_cast<std::int32_t>(kNumMeshDirections), cfg.filters,
                             cfg.kernel, nn::Padding::Valid);
  model_.emplace<nn::ReLU>();
  model_.emplace<nn::MaxPool2D>(cfg.pool);
  model_.emplace<nn::Flatten>();
  const auto conv_h = rows - cfg.kernel + 1;
  const auto conv_w = cols - cfg.kernel + 1;
  const auto flat = cfg.filters * (conv_h / cfg.pool) * (conv_w / cfg.pool);
  model_.emplace<nn::Dense>(flat, 1);
  model_.emplace<nn::Sigmoid>();
}

nn::Tensor3 DoSDetector::preprocess(const monitor::FrameSample& sample) const {
  const auto& frames = cfg_.feature == Feature::Vco ? sample.vco : sample.boc;
  std::vector<const Frame*> channels;
  channels.reserve(kNumMeshDirections);
  for (Direction d : kMeshDirections) channels.push_back(&monitor::frame_of(frames, d));
  nn::Tensor3 input = nn::Tensor3::from_frames(channels);

  if (cfg_.feature == Feature::Boc) {
    // Joint normalization: divide every channel by the global max so the
    // relative pressure between directions is preserved (§4).
    const float m = *std::max_element(input.data().begin(), input.data().end());
    if (m > 0.0F) {
      for (float& v : input.data()) v /= m;
    }
  }
  return input;
}

void DoSDetector::preprocess_into(const monitor::FrameSample& sample, nn::Tensor4& batch,
                                  std::int32_t slot) const {
  const auto& frames = cfg_.feature == Feature::Vco ? sample.vco : sample.boc;
  float* dst = batch.sample(slot);
  std::size_t off = 0;
  for (Direction d : kMeshDirections) {
    const auto& data = monitor::frame_of(frames, d).data();
    assert(off + data.size() <= batch.sample_size());
    std::copy(data.begin(), data.end(), dst + off);
    off += data.size();
  }
  if (cfg_.feature == Feature::Boc) {
    // Joint normalization across all four channels, as in preprocess().
    const float m = *std::max_element(dst, dst + off);
    if (m > 0.0F) {
      for (std::size_t i = 0; i < off; ++i) dst[i] /= m;
    }
  }
}

float DoSDetector::predict_probability(const monitor::FrameSample& sample) {
  return model_.forward(preprocess(sample)).data()[0];
}

TrainReport train_detector(DoSDetector& detector, const monitor::Dataset& data,
                           const TrainConfig& cfg) {
  Rng rng(cfg.seed);
  detector.model().init_weights(rng);
  nn::Adam optimizer(detector.model().params(), cfg.learning_rate);

  nn::BatchTrainConfig bt;
  bt.epochs = cfg.epochs;
  bt.batch_size = cfg.batch_size;
  bt.threads = cfg.threads;

  TrainReport report;
  const auto stage = [&](std::size_t item, nn::Tensor4& input, std::int32_t slot) {
    detector.preprocess_into(data.samples[item], input, slot);
  };
  const auto loss = [&](std::size_t item, const float* pred, std::size_t n,
                        float* grad) -> nn::ItemLoss {
    const float target = data.samples[item].under_attack ? 1.0F : 0.0F;
    return {nn::bce_loss_into(pred, &target, n, 1.0F, grad), 0.0};
  };
  const auto on_epoch = [&](std::int32_t /*epoch*/, float mean_loss, double /*metric*/) {
    report.final_loss = mean_loss;
    ++report.epochs_run;
  };
  nn::batch_train(detector.model(), optimizer, detector.input_shape(), data.samples.size(), stage,
                  loss, bt, rng, on_epoch);
  return report;
}

TrainReport train_detector_reference(DoSDetector& detector, const monitor::Dataset& data,
                                     const TrainConfig& cfg) {
  Rng rng(cfg.seed);
  detector.model().init_weights(rng);
  nn::Adam optimizer(detector.model().params(), cfg.learning_rate);

  std::vector<std::size_t> order(data.samples.size());
  std::iota(order.begin(), order.end(), 0);

  TrainReport report;
  for (std::int32_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    float epoch_loss = 0.0F;
    std::int32_t in_batch = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto& sample = data.samples[order[i]];
      const nn::Tensor3 out = detector.model().forward(detector.preprocess(sample));
      nn::Tensor3 target(1, 1, 1);
      target.data()[0] = sample.under_attack ? 1.0F : 0.0F;
      const auto loss = nn::bce_loss(out, target);
      epoch_loss += loss.loss;
      detector.model().backward(loss.grad);
      if (++in_batch == cfg.batch_size || i + 1 == order.size()) {
        optimizer.step();
        in_batch = 0;
      }
    }
    report.final_loss = epoch_loss / static_cast<float>(std::max<std::size_t>(order.size(), 1));
    ++report.epochs_run;
  }
  return report;
}

}  // namespace dl2f::core
