// Fixture: a probe only tests call is allowed with a reason; a bare allow
// silences nothing.
#pragma once

#include <cstdint>

namespace fixture {

// lint-allow(DL008): contract probe — the tests' witness that a region allocates nothing
[[nodiscard]] std::int64_t allocation_count() noexcept;

[[nodiscard]] std::int64_t live_count() noexcept;  // lint-allow(DL008): test oracle — the reference count tests compare against

// lint-allow(DL008):
[[nodiscard]] std::int64_t unexplained_count() noexcept;

}  // namespace fixture
