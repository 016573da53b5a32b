// The perfbench tree is a caller tree too.
#include "widget/widget.hpp"

std::int32_t twice(const fixture::Widget& w) { return w.scale(); }
