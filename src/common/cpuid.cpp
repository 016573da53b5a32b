#include "common/cpuid.hpp"

#include <atomic>
#include <cstdlib>

namespace dl2f::common {

namespace {

SimdLevel detect() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports reads CPUID once per process (libgcc caches).
  if (__builtin_cpu_supports("avx2")) return SimdLevel::Avx2;
#endif
  return SimdLevel::Scalar;
}

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

std::atomic<std::uint8_t>& active_storage() noexcept {
  // 0xFF = unresolved; resolved lazily so static-init order never matters.
  static std::atomic<std::uint8_t> level{0xFF};
  return level;
}

SimdLevel resolve() noexcept {
  const SimdLevel detected = detect();
  const SimdLevel ceiling = env_ceiling();
  return detected < ceiling ? detected : ceiling;
}

}  // namespace

SimdLevel detected_simd_level() noexcept { return detect(); }

SimdLevel active_simd_level() noexcept {
  std::atomic<std::uint8_t>& storage = active_storage();
  std::uint8_t raw = storage.load(std::memory_order_relaxed);
  if (raw == 0xFF) {
    raw = static_cast<std::uint8_t>(resolve());
    storage.store(raw, std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(raw);
}

SimdLevel force_simd_level(SimdLevel level) noexcept {
  const SimdLevel detected = detect();
  const SimdLevel clamped = detected < level ? detected : level;
  active_storage().store(static_cast<std::uint8_t>(clamped), std::memory_order_relaxed);
  return clamped;
}

bool parse_simd_level(std::string_view name, SimdLevel& out) noexcept {
  if (name == "scalar") {
    out = SimdLevel::Scalar;
  } else if (name == "avx2") {
    out = SimdLevel::Avx2;
  } else {
    return false;
  }
  return true;
}

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::Avx2: return "avx2";
    case SimdLevel::Scalar: break;
  }
  return "scalar";
}

}  // namespace dl2f::common
