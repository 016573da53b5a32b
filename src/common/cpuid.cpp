#include "common/cpuid.hpp"

#include <algorithm>
#include <cstdlib>

namespace dl2f::common {

namespace {

/// Environment clamp, read once at first dispatch. The env var exists so
/// CI (and any operator) can pin the scalar golden path on an identical
/// binary.
SimdLevel env_ceiling() noexcept {
  // One-time read of a deployment-level kernel-tier override; every tier
  // is bitwise-identical, so this cannot make any result environment-
  // dependent — only the speed at which it appears.
  // lint-allow(DL001): bitwise-neutral kernel-tier override, see above
  if (const char* fs = std::getenv("DL2F_FORCE_SCALAR"); fs != nullptr && fs[0] == '1') {
    return SimdLevel::Scalar;
  }
  return SimdLevel::Avx2;  // no override: detection alone decides
}

}  // namespace

SimdLevel detected_simd_level() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports reads CPUID once per process (libgcc caches).
  if (__builtin_cpu_supports("avx2")) return SimdLevel::Avx2;
#endif
  return SimdLevel::Scalar;
}

SimdLevel active_simd_level() noexcept {
  static const SimdLevel level = std::min(detected_simd_level(), env_ceiling());
  return level;
}

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::Avx2: return "avx2";
    case SimdLevel::Scalar: break;
  }
  return "scalar";
}

}  // namespace dl2f::common
