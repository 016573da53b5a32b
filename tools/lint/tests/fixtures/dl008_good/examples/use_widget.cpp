#include "widget/widget.hpp"

int main() {
  fixture::Widget w(fixture::kDefaultSize);
  w.reset();
  const int s = fixture::scale(w.size()) + fixture::clamp_to_zero(-1);
  return s == 0 ? 0 : 1;
}
