#include "core/detector.hpp"

#include <algorithm>

#include "nn/layers.hpp"
#include "nn/loss.hpp"

namespace dl2f::core {
namespace {

constexpr std::int32_t kKernel = 3;
constexpr std::int32_t kFilters = 8;
constexpr std::int32_t kPool = 2;
constexpr float kLearningRate = 1e-3F;

}  // namespace

void stack_frames(const monitor::FrameSample& sample, Feature feature, std::span<float> dst) {
  const auto& frames = feature == Feature::Vco ? sample.vco : sample.boc;
  std::size_t off = 0;
  for (Direction d : kMeshDirections) {
    const auto& data = monitor::frame_of(frames, d).data();
    assert(off + data.size() <= dst.size());
    std::copy(data.begin(), data.end(), dst.begin() + static_cast<std::ptrdiff_t>(off));
    off += data.size();
  }
  if (feature == Feature::Boc) {
    // Joint normalization: divide every channel by the global max so the
    // relative pressure between directions is preserved (§4).
    const auto staged = dst.first(off);
    const float m = *std::max_element(staged.begin(), staged.end());
    if (m > 0.0F) {
      for (float& v : staged) v /= m;
    }
  }
}

DoSDetector::DoSDetector(const DetectorConfig& cfg) : cfg_(cfg) {
  const auto rows = cfg.mesh.rows();
  const auto cols = cfg.mesh.cols() - 1;
  model_.emplace<nn::Conv2D>(static_cast<std::int32_t>(kNumMeshDirections), kFilters, kKernel,
                             nn::Padding::Valid);
  model_.emplace<nn::ReLU>();
  model_.emplace<nn::MaxPool2D>(kPool);
  model_.emplace<nn::Flatten>();
  const auto conv_h = rows - kKernel + 1;
  const auto conv_w = cols - kKernel + 1;
  model_.emplace<nn::Dense>(kFilters * (conv_h / kPool) * (conv_w / kPool), 1);
  model_.emplace<nn::Sigmoid>();
}

void DoSDetector::preprocess_into(const monitor::FrameSample& sample, nn::Tensor4& batch,
                                  std::int32_t slot) const {
  stack_frames(sample, cfg_.feature, {batch.sample(slot), batch.sample_size()});
}

nn::TrainReport train_detector(DoSDetector& detector, const monitor::Dataset& data,
                               const nn::TrainConfig& cfg) {
  for (const auto& s : data.samples) {
    monitor::check_window(s, detector.config().mesh, "train_detector");
  }
  // Stage each window's feature frames; BCE against its attack label.
  const auto stage = [&](std::size_t item, nn::Tensor4& input, std::int32_t slot) {
    detector.preprocess_into(data.samples[item], input, slot);
  };
  const auto loss = [&](std::size_t item, const float* pred, std::size_t n,
                        float* grad) -> nn::ItemLoss {
    const float target = data.samples[item].under_attack ? 1.0F : 0.0F;
    return {nn::bce_loss_into(pred, &target, n, 1.0F, grad), 0.0};
  };
  return nn::train(detector.model(), detector.input_shape(), kLearningRate, data.samples.size(),
                   stage, loss, cfg);
}

}  // namespace dl2f::core
