// Fixture: tests/ is not a caller tree, so these calls do not count.
#include "widget/widget.hpp"

int check() {
  fixture::Widget w(4);
  w.test_reset();
  return fixture::unused_helper(w.size()) + static_cast<int>(w.debug_only());
}
