// Runtime SIMD capability detection and the one process-wide dispatch
// decision the NN kernel layer (nn/gemm.hpp) keys off.
//
// The contract that makes a *runtime* choice safe in a bitwise-
// deterministic codebase: every kernel variant behind the dispatch is
// bitwise-identical to the scalar reference (lane-parallel axpy form,
// FMA contraction disabled — see the ACCUM-ORDER block in nn/gemm.hpp),
// so the selected level changes throughput only, never a single output
// bit. The level is resolved once per process, on first query, from
//
//   min( what the CPU supports, Scalar if DL2F_FORCE_SCALAR=1 is set )
//
// — the environment variable is the one override, so CI can pin the
// scalar golden path on an identical binary. Benches report the level
// (the `gemm_backend` JSON key) so every committed number names the code
// path that produced it.
#pragma once

#include <cstdint>

namespace dl2f::common {

/// The kernel tiers nn/gemm dispatches between. Order is capability
/// order: every level's kernels run on hardware of any higher level.
enum class SimdLevel : std::uint8_t {
  Scalar = 0,  ///< portable C++ (the golden reference; auto-vectorized)
  Avx2 = 1,    ///< 8-lane explicit kernels
};

/// Highest level this CPU can execute, ignoring overrides. Non-x86
/// builds and x86 CPUs without AVX2 report Scalar.
[[nodiscard]] SimdLevel detected_simd_level() noexcept;

/// The level the kernel dispatch actually uses: detected, clamped by the
/// environment (DL2F_FORCE_SCALAR=1 pins Scalar). Resolved once and
/// cached — cheap enough for per-call reads.
[[nodiscard]] SimdLevel active_simd_level() noexcept;

/// Stable lower-case name for reports and JSON artifacts.
[[nodiscard]] const char* simd_level_name(SimdLevel level) noexcept;

}  // namespace dl2f::common
