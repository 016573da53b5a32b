#include "common/debug_hooks.hpp"

#ifndef NDEBUG

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/aligned.hpp"

#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define DL2F_HAVE_BACKTRACE 1
#endif

namespace dl2f::dbg {
namespace {

// Per-thread state. thread_local keeps the instrumentation race-free
// (and TSan-silent) without atomics on the allocation fast path.
thread_local std::int64_t t_charged_allocs = 0;  ///< allocations charged to scopes
thread_local std::int32_t t_bypass_depth = 0;
thread_local const char* t_active_scope = nullptr;  ///< innermost NoAllocScope

void note_allocation() noexcept {
  if (t_bypass_depth != 0) return;
  ++t_charged_allocs;
  if (t_active_scope != nullptr) {
    // Abort here, not at scope exit: the backtrace then points straight
    // at the offending allocation instead of the end of the region.
    std::fprintf(stderr,
                 "NoAllocScope violation: %s performed a heap allocation "
                 "inside a region contracted to perform none\n",
                 t_active_scope);
#ifdef DL2F_HAVE_BACKTRACE
    // backtrace_symbols_fd writes straight to the fd without mallocing,
    // so the dump cannot recurse into these hooks.
    void* frames[32];
    const int n = backtrace(frames, 32);
    backtrace_symbols_fd(frames, n, 2);
#endif
    std::abort();
  }
}

}  // namespace

std::int64_t thread_allocation_count() noexcept { return t_charged_allocs; }

NoAllocScope::NoAllocScope(const char* what) noexcept : prev_(t_active_scope) {
  t_active_scope = what;
}

NoAllocScope::~NoAllocScope() { t_active_scope = prev_; }

AllocBypassScope::AllocBypassScope() noexcept { ++t_bypass_depth; }
AllocBypassScope::~AllocBypassScope() { --t_bypass_depth; }

void assert_simd_aligned(const void* p, const char* what) noexcept {
  if (common::is_simd_aligned(p)) return;
  std::fprintf(stderr, "SIMD alignment violation: %s at %p is not %zu-byte aligned\n", what, p,
               common::kSimdAlignment);
  std::abort();
}

}  // namespace dl2f::dbg

// ---------------------------------------------------------------------------
// Counting replacements for the global allocation functions (Debug only).
// Forward to std::malloc/std::free like the standard defaults; sanitizer
// builds still see every underlying malloc/free, so ASan coverage is
// preserved. The sized/array delete forms are all provided so no default
// definition lingers half-replaced.
void* operator new(std::size_t size) {
  dl2f::dbg::note_allocation();
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  dl2f::dbg::note_allocation();
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned forms (common/aligned.hpp allocates Tensor4/arena storage
// through these): counted like the plain forms so NoAllocScope guards
// aligned arena allocations too. aligned_alloc requires the size to be a
// multiple of the alignment; rounding up only pads the block.
namespace {
void* aligned_counted_alloc(std::size_t size, std::align_val_t al) {
  dl2f::dbg::note_allocation();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t padded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, padded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size, std::align_val_t al) {
  return aligned_counted_alloc(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return aligned_counted_alloc(size, al);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

#endif  // !NDEBUG
