// Binary-classification metrics used throughout the evaluation (Tables 1-4
// report accuracy / precision / recall / F1; the segmentation model's Dice
// score is nn::dice_score_raw).
#pragma once

#include <cstdint>
#include <iosfwd>

namespace dl2f {

/// Accumulating 2x2 confusion matrix for binary decisions.
class ConfusionMatrix {
 public:
  void add(bool predicted, bool actual) noexcept {
    if (predicted && actual) ++tp_;
    else if (predicted && !actual) ++fp_;
    else if (!predicted && actual) ++fn_;
    else ++tn_;
  }

  [[nodiscard]] std::int64_t tp() const noexcept { return tp_; }
  [[nodiscard]] std::int64_t fp() const noexcept { return fp_; }
  [[nodiscard]] std::int64_t fn() const noexcept { return fn_; }
  [[nodiscard]] std::int64_t tn() const noexcept { return tn_; }
  [[nodiscard]] std::int64_t total() const noexcept { return tp_ + fp_ + fn_ + tn_; }

  /// Conventions: an empty matrix reports 0 for every metric; precision with
  /// no positive predictions and recall with no actual positives report 1
  /// (nothing was claimed / nothing was missed), matching how the paper's
  /// per-benchmark columns behave on all-benign splits.
  [[nodiscard]] double accuracy() const noexcept;
  [[nodiscard]] double precision() const noexcept;
  [[nodiscard]] double recall() const noexcept;
  [[nodiscard]] double f1() const noexcept;

 private:
  std::int64_t tp_ = 0, fp_ = 0, fn_ = 0, tn_ = 0;
};

std::ostream& operator<<(std::ostream& os, const ConfusionMatrix& m);

}  // namespace dl2f
