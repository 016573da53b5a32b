#include "temporal/detector.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/layers.hpp"

namespace dl2f::temporal {
namespace {

constexpr std::int32_t kKernel = 3;
constexpr std::int32_t kFilters = 8;
constexpr std::int32_t kPool = 2;
constexpr std::int32_t kTemporalFilters = 16;

}  // namespace

void check_sequence_length(std::int32_t sequence_length, const char* who) {
  if (sequence_length < kTemporalKernel || sequence_length > kMaxSequenceLength) {
    throw std::invalid_argument(std::string(who) + ": sequence_length " +
                                std::to_string(sequence_length) + " outside [" +
                                std::to_string(kTemporalKernel) + ", " +
                                std::to_string(kMaxSequenceLength) + "]");
  }
}

TemporalDetector::TemporalDetector(const TemporalDetectorConfig& cfg) : cfg_(cfg) {
  check_sequence_length(cfg.sequence_length, "TemporalDetector");
  model_.emplace<nn::Conv2D>(kChannelsPerWindow, kFilters, kKernel, nn::Padding::Valid,
                             cfg.sequence_length);
  model_.emplace<nn::ReLU>();
  model_.emplace<nn::MaxPool2D>(kPool);
  model_.emplace<nn::Flatten>();
  // Flatten's channel-major layout is time-major here: the stepped Conv2D
  // emits channel t*filters+f, so each window's embedding is one contiguous
  // D-float block — exactly the (steps, in_f) layout the windowed Dense
  // slides over.
  model_.emplace<nn::Dense>(embedding_dim(), kTemporalFilters, cfg.sequence_length,
                            kTemporalKernel);
  model_.emplace<nn::ReLU>();
  const auto out_steps = cfg.sequence_length - kTemporalKernel + 1;
  model_.emplace<nn::Dense>(out_steps * kTemporalFilters, 1);
  model_.emplace<nn::Sigmoid>();
}

nn::Tensor3 TemporalDetector::input_shape() const {
  return nn::Tensor3(cfg_.sequence_length * kChannelsPerWindow, cfg_.mesh.rows(),
                     cfg_.mesh.cols() - 1);
}

std::int32_t TemporalDetector::embedding_dim() const noexcept {
  const auto conv_h = cfg_.mesh.rows() - kKernel + 1;
  const auto conv_w = (cfg_.mesh.cols() - 1) - kKernel + 1;
  return kFilters * (conv_h / kPool) * (conv_w / kPool);
}

void TemporalDetector::check_sequence(monitor::SequenceView seq, const char* who) const {
  if (!std::cmp_equal(seq.size(), cfg_.sequence_length)) {
    throw std::invalid_argument(std::string(who) + ": " + std::to_string(seq.size()) +
                                " windows, the temporal head reads " +
                                std::to_string(cfg_.sequence_length));
  }
  for (const monitor::FrameSample* s : seq) monitor::check_window(*s, cfg_.mesh, who);
}

void TemporalDetector::preprocess_into(monitor::SequenceView seq, nn::Tensor4& batch,
                                       std::int32_t slot) const {
  const auto rows = cfg_.mesh.rows();
  const auto cols = cfg_.mesh.cols() - 1;
  const auto hw = static_cast<std::size_t>(rows * cols);
  const auto per_window = static_cast<std::size_t>(kChannelsPerWindow) * hw;
  assert(std::cmp_equal(seq.size(), cfg_.sequence_length));
  assert(batch.sample_size() == seq.size() * per_window);
  float* dst = batch.sample(slot);

  // Pass 1, per window: VCO channels 0-3 verbatim, RAW pressure rate into
  // the channel-4 slot, RAW gained source-rate plane into the channel-6
  // slot.
  for (std::size_t t = 0; t < seq.size(); ++t) {
    const monitor::FrameSample& s = *seq[t];
    float* win = dst + t * per_window;
    std::size_t off = 0;
    for (Direction d : kMeshDirections) {
      const auto& data = monitor::frame_of(s.vco, d).data();
      assert(data.size() == hw);
      std::copy(data.begin(), data.end(), win + off);
      off += hw;
    }
    pressure_rate_into(s, win + 4 * hw, hw);
    sources_rate_into(s, cfg_.mesh, win + 6 * hw, hw);
  }

  // Pass 2, timesteps DESCENDING: channel 5 is the signed delta between
  // this window's and the previous window's raw pressure rates, and
  // channel 7 the same trend over the raw source rates; then the raw
  // channel-4 and channel-6 slots are squashed in place. Descending order
  // means window t-1's slots still hold the raw rates when window t's
  // deltas read them — no scratch planes needed.
  for (std::size_t t = seq.size(); t-- > 0;) {
    float* win = dst + t * per_window;
    float* rate = win + 4 * hw;
    float* delta = win + 5 * hw;
    float* src_rate = win + 6 * hw;
    float* src_trend = win + 7 * hw;
    const float* prev = t > 0 ? dst + (t - 1) * per_window + 4 * hw : rate;
    const float* src_prev = t > 0 ? dst + (t - 1) * per_window + 6 * hw : src_rate;
    for (std::size_t i = 0; i < hw; ++i) delta[i] = squash_signed(rate[i] - prev[i]);
    for (std::size_t i = 0; i < hw; ++i) src_trend[i] = squash_signed(src_rate[i] - src_prev[i]);
    for (std::size_t i = 0; i < hw; ++i) rate[i] = squash(rate[i]);
    for (std::size_t i = 0; i < hw; ++i) src_rate[i] = squash(src_rate[i]);
  }
}

}  // namespace dl2f::temporal
