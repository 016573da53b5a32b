// Feature frames: the 2-D matrices DL2Fence treats as images.
//
// A Frame is a dense row-major float matrix. Directional VCO/BOC feature
// frames are R x (R-1); Multi-Frame Fusion accumulates node-space R x R
// frames. Frame supports the operations Algorithm 1 needs on them:
// binarization and element-wise accumulation. The BOC normalization
// before segmentation happens as the CNNs stage their inputs
// (DoSDetector/DoSLocalizer::preprocess_into).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace dl2f {

class Frame {
 public:
  Frame() = default;
  Frame(std::int32_t rows, std::int32_t cols, float fill = 0.0F)
      : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows * cols), fill) {
    assert(rows >= 0 && cols >= 0);
  }

  [[nodiscard]] std::int32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::int32_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  [[nodiscard]] float& at(std::int32_t r, std::int32_t c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  [[nodiscard]] float at(std::int32_t r, std::int32_t c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  [[nodiscard]] const std::vector<float>& data() const noexcept { return data_; }
  [[nodiscard]] std::vector<float>& data() noexcept { return data_; }

  [[nodiscard]] float max_value() const;
  [[nodiscard]] float sum() const;

  /// Entries > threshold become 1, the rest 0 (Algorithm 1 line 2).
  [[nodiscard]] Frame binarized(float threshold = 0.5F) const;

  /// Element-wise sum; shapes must match (Multi-Frame Fusion accumulate).
  Frame& operator+=(const Frame& other);

  friend bool operator==(const Frame&, const Frame&) = default;

 private:
  std::int32_t rows_ = 0;
  std::int32_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace dl2f
