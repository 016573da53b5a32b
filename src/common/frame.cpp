#include "common/frame.hpp"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <ostream>

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

std::ostream& operator<<(std::ostream& os, const Frame& f) {
  for (std::int32_t r = 0; r < f.rows(); ++r) {
    for (std::int32_t c = 0; c < f.cols(); ++c) {
      os << std::setw(6) << std::fixed << std::setprecision(2) << f.at(r, c)
         << (c + 1 == f.cols() ? '\n' : ' ');
    }
  }
  return os;
}

}  // namespace dl2f
