// Dense tensors for the CNN stack.
//
// Tensor3 is one CHW sample — the currency of the retained per-sample
// reference path (Layer::forward/backward), which stays a direct
// transcription of each layer's math and serves as the bitwise golden
// reference for the batched paths.
//
// Tensor4 is an NCHW batch of same-shaped samples, the unit ALL
// production compute moves in: the const inference path packs monitoring
// windows into one Tensor4 and pushes them through
// Sequential::infer_batch without allocating, and the batched trainer
// (nn/train.hpp) packs minibatches the same way for
// infer_batch/backward_batch through the GEMM backend (nn/gemm.hpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/aligned.hpp"

namespace dl2f::nn {

class Tensor3 {
 public:
  Tensor3() = default;
  Tensor3(std::int32_t channels, std::int32_t height, std::int32_t width, float fill = 0.0F)
      : c_(channels), h_(height), w_(width),
        data_(static_cast<std::size_t>(channels * height * width), fill) {
    assert(channels >= 0 && height >= 0 && width >= 0);
  }

  [[nodiscard]] std::int32_t channels() const noexcept { return c_; }
  [[nodiscard]] std::int32_t height() const noexcept { return h_; }
  [[nodiscard]] std::int32_t width() const noexcept { return w_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  [[nodiscard]] float& at(std::int32_t c, std::int32_t h, std::int32_t w) {
    assert(c >= 0 && c < c_ && h >= 0 && h < h_ && w >= 0 && w < w_);
    return data_[static_cast<std::size_t>((c * h_ + h) * w_ + w)];
  }
  [[nodiscard]] float at(std::int32_t c, std::int32_t h, std::int32_t w) const {
    assert(c >= 0 && c < c_ && h >= 0 && h < h_ && w >= 0 && w < w_);
    return data_[static_cast<std::size_t>((c * h_ + h) * w_ + w)];
  }

  [[nodiscard]] std::vector<float>& data() noexcept { return data_; }
  [[nodiscard]] const std::vector<float>& data() const noexcept { return data_; }

 private:
  std::int32_t c_ = 0, h_ = 0, w_ = 0;
  std::vector<float> data_;
};

/// A batch of same-shaped CHW samples in one contiguous NCHW block — the
/// window-batch currency of the inference API. `reserve_batch` preallocates
/// for a capacity; `set_batch` within that capacity never reallocates, so a
/// bound InferenceContext keeps the scoring hot path allocation-free.
class Tensor4 {
 public:
  Tensor4() = default;
  Tensor4(std::int32_t batch, std::int32_t channels, std::int32_t height, std::int32_t width)
      : n_(batch), c_(channels), h_(height), w_(width),
        data_(static_cast<std::size_t>(batch) * static_cast<std::size_t>(channels * height * width),
              0.0F) {
    assert(batch >= 0 && channels >= 0 && height >= 0 && width >= 0);
  }

  [[nodiscard]] std::int32_t batch() const noexcept { return n_; }
  [[nodiscard]] std::int32_t channels() const noexcept { return c_; }
  [[nodiscard]] std::int32_t height() const noexcept { return h_; }
  [[nodiscard]] std::int32_t width() const noexcept { return w_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  /// Scalars per sample (C * H * W).
  [[nodiscard]] std::size_t sample_size() const noexcept {
    return static_cast<std::size_t>(c_ * h_ * w_);
  }

  /// Set the active batch; allocation-free while the backing store has
  /// capacity for it (an InferenceContext constructs each buffer at its
  /// full batch capacity once, so later set_batch calls never allocate).
  void set_batch(std::int32_t batch) {
    assert(batch >= 0);
    n_ = batch;
    data_.resize(static_cast<std::size_t>(batch) * sample_size());
  }

  [[nodiscard]] float* sample(std::int32_t i) noexcept {
    assert(i >= 0 && i < n_);
    return data_.data() + static_cast<std::size_t>(i) * sample_size();
  }
  [[nodiscard]] const float* sample(std::int32_t i) const noexcept {
    assert(i >= 0 && i < n_);
    return data_.data() + static_cast<std::size_t>(i) * sample_size();
  }

  [[nodiscard]] common::aligned_vector<float>& data() noexcept { return data_; }
  [[nodiscard]] const common::aligned_vector<float>& data() const noexcept { return data_; }

 private:
  std::int32_t n_ = 0, c_ = 0, h_ = 0, w_ = 0;
  // 32-byte-aligned backing store: sample(0) (and the whole NCHW block)
  // starts on a SIMD register boundary. Kernels still use unaligned
  // loads — alignment is a cache/packing nicety, never a correctness
  // requirement — but Debug builds assert it (nn/inference.cpp) so the
  // allocation path cannot silently regress.
  common::aligned_vector<float> data_;
};

}  // namespace dl2f::nn
