// Fixture: three functions only tests/ calls (a free function, an inline
// member and an out-of-line member), next to one the bench calls.
#pragma once

#include <cstdint>

namespace fixture {

/// Called by bench/: clean.
[[nodiscard]] std::int32_t widget_count();

/// Mentioned by bench/ only in a comment and a string: a finding.
[[nodiscard]] std::int32_t unused_helper(std::int32_t x);

class Widget {
 public:
  explicit Widget(std::int32_t size) : size_(size) {}

  [[nodiscard]] std::int32_t size() const noexcept { return size_; }
  /// Inline member nothing outside tests/ calls: a finding.
  [[nodiscard]] bool debug_only() const noexcept { return size_ > 3; }
  /// Out-of-line member: its definition in widget.cpp is not a use.
  void test_reset();

 private:
  std::int32_t size_ = 0;
};

}  // namespace fixture
