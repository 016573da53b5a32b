// Debug-build allocation instrumentation: the checked form of the
// "zero allocations on the hot path" comments in noc/mesh.hpp and
// nn/inference.hpp.
//
// In Debug builds (!NDEBUG) the library replaces global operator
// new/new[] with counting forwarders to std::malloc (debug_hooks.cpp),
// tracking a per-thread allocation count. While a NoAllocScope is alive
// on a thread, any charged allocation aborts AT THE ALLOCATION SITE
// (diagnostic names the scope; the backtrace names the culprit) — so a
// PR that sneaks a heap allocation into Mesh::step, the PipelineSession
// inference loops or the trainer's slice compute fails every
// Debug/sanitize ctest run with an actionable stack, not a code review.
//
// An AllocBypassScope re-permits allocation inside an enclosing
// NoAllocScope for regions that are documented exceptions (e.g. the
// external PacketDeliveryListener callback in Mesh::step: the workload
// endpoints own reply queues and may grow them).
//
// Under NDEBUG everything here collapses to empty inline types and the
// replacement operators are not compiled at all: zero cost, zero
// behavior change in Release/bench builds.
//
// Counters are thread_local, so the instrumentation itself is
// TSan-clean and scopes on different threads never interact.
#pragma once

#include <cstdint>

namespace dl2f::dbg {

#ifndef NDEBUG

/// Allocations (operator new / new[]) performed by this thread so far,
/// excluding those made under an AllocBypassScope. Monotonic; useful for
/// "this region allocates nothing" regression tests.
// lint-allow(DL008): contract probe — the tests' witness that NoAllocScope allocates nothing
[[nodiscard]] std::int64_t thread_allocation_count() noexcept;

/// RAII contract: the current thread must not allocate between
/// construction and destruction (AllocBypassScope regions excepted).
/// A violating allocation aborts immediately, naming the innermost
/// active scope. Scopes nest; the name restores on destruction.
class NoAllocScope {
 public:
  explicit NoAllocScope(const char* what) noexcept;
  ~NoAllocScope();
  NoAllocScope(const NoAllocScope&) = delete;
  NoAllocScope& operator=(const NoAllocScope&) = delete;

 private:
  const char* prev_;
};

/// RAII exemption: allocations on this thread are not charged against
/// any enclosing NoAllocScope while alive. Nests.
class AllocBypassScope {
 public:
  AllocBypassScope() noexcept;
  ~AllocBypassScope();
  AllocBypassScope(const AllocBypassScope&) = delete;
  AllocBypassScope& operator=(const AllocBypassScope&) = delete;
};

/// Debug assertion that `p` honors the SIMD arena alignment contract
/// (common/aligned.hpp): aborts with `what` when common::is_simd_aligned(p)
/// is false. Inert under NDEBUG.
void assert_simd_aligned(const void* p, const char* what) noexcept;

#else  // NDEBUG: inert stand-ins, fully inlined away.

// lint-allow(DL008): contract probe — the NDEBUG stand-in of the allocation counter above
[[nodiscard]] inline std::int64_t thread_allocation_count() noexcept { return -1; }

class NoAllocScope {
 public:
  explicit NoAllocScope(const char* /*what*/) noexcept {}
};

class AllocBypassScope {
 public:
  AllocBypassScope() noexcept {}
};

inline void assert_simd_aligned(const void* /*p*/, const char* /*what*/) noexcept {}

#endif

}  // namespace dl2f::dbg
