#include "common/metrics.hpp"

#include <ostream>

namespace dl2f {

double ConfusionMatrix::accuracy() const noexcept {
  const auto n = total();
  if (n == 0) return 0.0;
  return static_cast<double>(tp_ + tn_) / static_cast<double>(n);
}

double ConfusionMatrix::precision() const noexcept {
  const auto denom = tp_ + fp_;
  if (denom == 0) return 1.0;
  return static_cast<double>(tp_) / static_cast<double>(denom);
}

double ConfusionMatrix::recall() const noexcept {
  const auto denom = tp_ + fn_;
  if (denom == 0) return 1.0;
  return static_cast<double>(tp_) / static_cast<double>(denom);
}

double ConfusionMatrix::f1() const noexcept {
  const double p = precision();
  const double r = recall();
  if (p + r == 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

std::ostream& operator<<(std::ostream& os, const ConfusionMatrix& m) {
  return os << "tp=" << m.tp() << " fp=" << m.fp() << " fn=" << m.fn() << " tn=" << m.tn();
}

}  // namespace dl2f
