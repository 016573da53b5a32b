#include "common/frame.hpp"

#include <algorithm>
#include <numeric>

namespace dl2f {

float Frame::max_value() const {
  if (data_.empty()) return 0.0F;
  return *std::max_element(data_.begin(), data_.end());
}

float Frame::sum() const { return std::accumulate(data_.begin(), data_.end(), 0.0F); }

Frame Frame::binarized(float threshold) const {
  Frame out = *this;
  for (float& v : out.data_) v = v > threshold ? 1.0F : 0.0F;
  return out;
}

Frame& Frame::operator+=(const Frame& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

}  // namespace dl2f
