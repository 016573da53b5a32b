#include "widget/widget.hpp"

namespace fixture {

std::int32_t scale(std::int32_t v) { return v * kDefaultSize; }

double scale(double v) { return v * kDefaultSize; }

void Widget::reset() {
  size_ = 0;
  slot_ = Slot{};
  if (slot_.empty()) modes_.clear();
}

}  // namespace fixture
