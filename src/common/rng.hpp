// Deterministic random number generation.
//
// Every stochastic component in the repo (traffic patterns, attacker
// placement, weight init, dataset shuffling) draws from an explicitly
// seeded Rng so that simulations, training runs and benchmark tables are
// reproducible bit-for-bit across runs.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>

namespace dl2f {

/// splitmix64 finalizer — derives decorrelated sub-seeds from one seed
/// (scenario legs, campaign grid coordinates). Determinism contracts
/// (byte-identical campaigns) depend on every caller sharing this exact
/// bit-mixing, so it lives here rather than per-translation-unit.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over a string — turns grid-axis names (scenario family, workload)
/// into seed material (runtime::cell_seeds).
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// MT19937-64 with the C++ standard's parameters and seeding, so it emits
/// exactly the words the standard library's 64-bit Mersenne Twister emits
/// for the same seed (tests/rng_test.cpp compares them word for word).
/// Written out so the twist picks its constant with a mask: the library's
/// `(y & 1) ? a : 0` compiles to a branch on each new word's low bit,
/// which mispredicts on half the words.
class MersenneTwister64 {
 public:
  using result_type = std::uint64_t;

  explicit MersenneTwister64(result_type seed) noexcept {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  // lint-allow(DL008): contract probe — UniformRandomBitGenerator names it; std::shuffle folds it
  [[nodiscard]] static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (next_ == kN) refill();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  /// Twist the word pair (x[k], x[k+1]) into the term XORed onto x[k+m].
  static result_type twist(result_type hi, result_type lo) noexcept {
    constexpr result_type kUpper = ~result_type{0} << 31;
    const result_type y = (hi & kUpper) | (lo & ~kUpper);
    return (y >> 1) ^ (0xb5026f5aa96619e9ULL & (0 - (y & 1)));
  }

  void refill() noexcept {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) x_[k] = x_[k + kM] ^ twist(x_[k], x_[k + 1]);
    for (; k < kN - 1; ++k) x_[k] = x_[k - (kN - kM)] ^ twist(x_[k], x_[k + 1]);
    x_[kN - 1] = x_[kM - 1] ^ twist(x_[kN - 1], x_[0]);
    next_ = 0;
  }

  std::array<result_type, kN> x_{};
  std::size_t next_ = kN;
};

/// The first engine word at which a Bernoulli(p) trial fails, for p in
/// (0, 1): `uniform_real_distribution<double>(0, 1)(engine) < p` holds
/// exactly when the word it consumes is below this threshold. That
/// distribution maps a 64-bit word w to double(w) * 2^-64, rounding w to
/// the nearest double (ties to the even significand). With P = p * 2^64:
///  * P <= 2^53: every word below 2^53 converts exactly, so T = ceil(P);
///  * otherwise P is an integer and the words that round below P are the
///    ones under the midpoint between P and the double below it; the
///    midpoint word itself rounds down when P's significand is odd.
/// Computed from p's bits alone: no library call, no data-dependent
/// branch on the word.
[[nodiscard]] constexpr std::uint64_t bernoulli_threshold(double p) noexcept {
  assert(p > 0.0 && p < 1.0);
  const auto bits = std::bit_cast<std::uint64_t>(p);
  const auto biased = static_cast<std::int32_t>(bits >> 52);  // sign bit clear
  const std::uint64_t frac = bits & ((std::uint64_t{1} << 52) - 1);
  const std::uint64_t hidden = std::uint64_t{1} << 52;
  // p = m * 2^(e - 1075) with m the integer significand (subnormals have
  // no hidden bit and e = 1), so P = m * 2^k.
  const std::uint64_t m = biased == 0 ? frac : frac | hidden;
  const std::int32_t k = std::max(biased, 1) - 1011;
  if (k <= 0) return ((m - 1) >> std::min(-k, 63)) + 1;  // ceil(m / 2^-k), m < 2^53
  // The gap below P is 2^k, or 2^(k-1) when P is a power of two; k <= 11
  // for p < 1. At P = 2^53 (k = 1, m = 2^52) the half gap rounds to 0.
  const std::uint64_t half_gap = (std::uint64_t{1} << (k - 1)) >> (m == hidden ? 1 : 0);
  return (m << k) - half_gap + (m & 1);
}

/// A Bernoulli success probability reduced once to the engine-word test
/// Rng::bernoulli applies: generators whose p is fixed between draws keep
/// one and skip the threshold arithmetic on every trial. p <= 0 and NaN
/// never succeed; p >= 1 always does.
class BernoulliP {
 public:
  constexpr explicit BernoulliP(double p) noexcept
      : threshold_(p > 0.0 && p < 1.0 ? bernoulli_threshold(p) : 0), always_(p >= 1.0) {}

  /// The trial's outcome on engine word `w`: what Rng::bernoulli returns
  /// when the engine emits `w`.
  [[nodiscard]] constexpr bool outcome(std::uint64_t w) const noexcept {
    return (w < threshold_) | always_;
  }

 private:
  std::uint64_t threshold_ = 0;
  bool always_ = false;
};

/// Seeded MersenneTwister64 with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    // lint-allow(DL001): Rng is the one owner of std distributions (see determinism_lint.py)
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p: the same outcome as
  /// `uniform() < p`, decided by one integer compare of the engine word.
  /// Consumes exactly one word for every p.
  [[nodiscard]] bool bernoulli(BernoulliP p) noexcept { return p.outcome(engine_()); }

  /// Access the underlying engine for std::shuffle and distributions.
  [[nodiscard]] MersenneTwister64& engine() noexcept { return engine_; }

 private:
  MersenneTwister64 engine_;
  // lint-allow(DL001): Rng is the one owner of std distributions (see determinism_lint.py)
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace dl2f
