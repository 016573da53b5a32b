// Fixture: the bench calls widget_count; unused_helper appears only in
// this comment and the string below, which are not calls.
#include <cstdio>

#include "widget/widget.hpp"

int main() {
  std::printf("%d unused_helper\n", fixture::widget_count());
  return 0;
}
