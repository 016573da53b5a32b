// Fixture: every function name declared here has a caller outside its own
// declaration and definition, and the scanner must not mistake the other
// constructs below for declarations.
#pragma once

#include <cstdint>
#include <vector>

#define FIXTURE_TWICE(x) ((x) * 2)

namespace fixture {

enum class Mode : std::uint8_t { Fast, Exact };

template <typename T>
[[nodiscard]] T clamp_to_zero(T v) {
  // A local declared with constructor arguments inside a body is code.
  std::vector<T> scratch(2, v);
  return scratch.front() < T{} ? T{} : scratch.front();
}

/// Overloads share one name: a call to either is a use of both.
[[nodiscard]] std::int32_t scale(std::int32_t v);
[[nodiscard]] double scale(double v);

class Widget {
 public:
  explicit Widget(std::int32_t size) : size_{size}, modes_(1, Mode::Fast) {}
  ~Widget() = default;
  Widget(const Widget&) = delete;
  Widget& operator=(const Widget&) = delete;
  friend bool operator==(const Widget& a, const Widget& b) { return a.size_ == b.size_; }
  explicit operator bool() const noexcept { return size_ > 0; }

  [[nodiscard]] std::int32_t size() const noexcept { return size_; }
  /// Same name as the free overloads: calling either counts.
  [[nodiscard]] std::int32_t scale() const noexcept { return FIXTURE_TWICE(size_); }
  void reset();

 private:
  struct Slot {
    std::int32_t value = 0;
    [[nodiscard]] bool empty() const noexcept { return value == 0; }
  };
  static_assert(sizeof(std::int32_t) == 4, "fixture assumes 32-bit ints");
  std::int32_t size_ = 0;
  std::vector<Mode> modes_;
  Slot slot_{};
};

using Scaler = decltype(&clamp_to_zero<int>);
inline constexpr std::int32_t kDefaultSize = 3;

}  // namespace fixture
