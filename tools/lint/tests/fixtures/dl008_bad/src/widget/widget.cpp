#include "widget/widget.hpp"

namespace fixture {

std::int32_t widget_count() { return Widget(2).size(); }

std::int32_t unused_helper(std::int32_t x) { return x + 1; }

void Widget::test_reset() { size_ = 0; }

}  // namespace fixture
