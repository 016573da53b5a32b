#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

namespace dl2f {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.uniform() == b.uniform()) ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRateApproximation) {
  Rng rng(11);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.bernoulli(BernoulliP(0.3)) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(BernoulliP(0.0)));
    EXPECT_TRUE(rng.bernoulli(BernoulliP(1.0)));
  }
}

// ---------------------------------------------------------------------------
// Exactness against the standard library. Every seeded artifact in the
// repo (goldens, trained weights, tables) was produced by std::mt19937_64
// and `std::uniform_real_distribution<double>(0, 1)(engine) < p`; the
// in-repo engine and the integer-threshold bernoulli must reproduce both
// exactly, not statistically.

TEST(MersenneTwister64, MatchesStdMt19937_64WordForWord) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489}, ~std::uint64_t{0}, mix64(42)}) {
    MersenneTwister64 ours(seed);
    std::mt19937_64 ref(seed);
    std::size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) mismatches += ours() != ref() ? 1 : 0;
    EXPECT_EQ(mismatches, 0U) << "seed " << seed;
  }
}

TEST(MersenneTwister64, TenThousandthWordIsTheStandardsValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces 9981545732273789042.
  MersenneTwister64 engine(5489);
  for (int i = 0; i < 9999; ++i) (void)engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

/// A generator that returns one chosen word, so the oracle can be asked
/// what the library distribution makes of exactly that word.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() const { return word; }
};

/// The pre-threshold bernoulli: the word through the library's [0, 1)
/// distribution, compared against p.
bool oracle(std::uint64_t word, double p) {
  FixedWord g{word};
  return std::uniform_real_distribution<double>(0.0, 1.0)(g) < p;
}

std::vector<double> probabilities() {
  // Every probability the repo passes to bernoulli (traffic rates, FIRs,
  // on/off switching, PARSEC controller affinity, test rates) ...
  std::vector<double> ps = {0.002, 0.004, 0.01, 0.015, 0.02, 0.03,
                            0.08,  0.3,   0.5,  0.75,  0.8,  0.9};
  // ... and the edges of the threshold formula: P = p * 2^64 exactly 2^53
  // (the ceil/midpoint boundary), P = 1, P = 1/2, the smallest subnormal,
  // and the largest double below 1.
  ps.push_back(std::ldexp(1.0, -11));
  ps.push_back(std::ldexp(1.0, -64));
  ps.push_back(std::ldexp(1.0, -65));
  ps.push_back(std::numeric_limits<double>::denorm_min());
  ps.push_back(1.0 - std::ldexp(1.0, -53));
  return ps;
}

TEST(Bernoulli, ThresholdIsTheWordWhereTheOracleFlips) {
  for (const double p : probabilities()) {
    const std::uint64_t t = bernoulli_threshold(p);
    ASSERT_GE(t, 1U) << p;
    EXPECT_TRUE(oracle(t - 1, p)) << p;
    EXPECT_FALSE(oracle(t, p)) << p;
    EXPECT_FALSE(oracle(t + 1, p)) << p;
    for (const std::uint64_t w : {t - 1, t, t + 1}) {
      EXPECT_EQ(BernoulliP(p).outcome(w), oracle(w, p)) << p << " at word " << w;
    }
  }
}

TEST(Bernoulli, OutcomeEqualsOracleOnRandomWords) {
  std::mt19937_64 words(2024);
  for (const double p : probabilities()) {
    std::size_t mismatches = 0;
    for (int i = 0; i < 100'000; ++i) {
      const std::uint64_t w = words();
      mismatches += BernoulliP(p).outcome(w) != oracle(w, p) ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0U) << p;
  }
}

TEST(Bernoulli, RngStreamEqualsOracleOverStdEngine) {
  for (const double p : probabilities()) {
    Rng rng(77);
    std::mt19937_64 ref(77);
    std::size_t mismatches = 0;
    for (int i = 0; i < 10'000; ++i) {
      mismatches += rng.bernoulli(BernoulliP(p)) != oracle(ref(), p) ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0U) << p;
    EXPECT_EQ(rng.engine()(), ref()) << p;
  }
}

TEST(Bernoulli, DegenerateProbabilitiesConsumeExactlyOneWord) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double p : {0.0, -0.5, nan, 1.0, 1.5}) {
    Rng rng(31);
    std::mt19937_64 ref(31);
    for (int i = 0; i < 700; ++i) {  // spans two engine refills
      EXPECT_EQ(rng.bernoulli(BernoulliP(p)), p >= 1.0) << p;
      (void)ref();
    }
    EXPECT_EQ(rng.engine()(), ref()) << p;
  }
}

TEST(Bernoulli, HoistedTrialEqualsOracleOnEveryWord) {
  // A BernoulliP built once and reused, as the generators keep theirs,
  // draws the oracle's outcome on every word, one word per call, for
  // every probability the repo passes, the threshold formula's edges and
  // the degenerate p.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> ps = probabilities();
  ps.insert(ps.end(), {0.0, -0.5, nan, 1.0, 1.5});
  for (const double p : ps) {
    const BernoulliP trial(p);
    Rng fixed(2718);
    std::mt19937_64 ref(2718);
    std::size_t mismatches = 0;
    for (int i = 0; i < 100'000; ++i) {
      mismatches += fixed.bernoulli(trial) != oracle(ref(), p) ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0U) << p;
    EXPECT_EQ(fixed.engine()(), ref()) << p;
  }
}

TEST(Rng, LibraryDrawsMatchTheSameCallsOverStdEngine) {
  Rng rng(4242);
  std::mt19937_64 ref(4242);
  std::vector<int> a(97), b(97);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 0);
  std::shuffle(a.begin(), a.end(), rng.engine());
  std::shuffle(b.begin(), b.end(), ref);
  EXPECT_EQ(a, b);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(rng.uniform_int(-3, 1000 + i),
              std::uniform_int_distribution<std::int64_t>(-3, 1000 + i)(ref));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.uniform()),
              std::bit_cast<std::uint64_t>(std::uniform_real_distribution<double>(0.0, 1.0)(ref)));
  }
}

}  // namespace
}  // namespace dl2f
