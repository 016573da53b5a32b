// Bitwise-parity sweep of the AVX2 kernel tier against the scalar
// reference (the dispatch contract in nn/gemm.hpp): the SIMD tier must
// produce byte-identical output on every kernel, including every
// remainder-lane shape — the M, N, K sweep below hits below-one-vector,
// exactly-one-vector, vector+tail and multi-vector+tail cases for the
// 8-lane kernels.
#include "nn/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/cpuid.hpp"
#include "common/rng.hpp"

namespace dl2f::nn::gemm {
namespace {

using common::SimdLevel;

const std::int32_t kSweep[] = {1, 3, 7, 8, 9, 31, 33};

/// Parity tests compare the AVX2 table with the scalar one. On a CPU
/// without AVX2 there is nothing to compare, so they skip rather than
/// pass vacuously.
class GemmAvx2Parity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (common::detected_simd_level() < SimdLevel::Avx2) {
      GTEST_SKIP() << "CPU lacks AVX2: no SIMD tier to compare against scalar";
    }
  }

  const GemmKernels& ref = kernels_for(SimdLevel::Scalar);
  const GemmKernels& kt = kernels_for(SimdLevel::Avx2);
};

std::vector<float> random_block(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

#define EXPECT_BITWISE_EQ(a, b)                                                       \
  EXPECT_EQ(0, std::memcmp((a).data(), (b).data(), (a).size() * sizeof((a)[0])))      \
      << "avx2 diverges from scalar"

TEST_F(GemmAvx2Parity, GemmBiasBitwiseParity) {
  Rng rng(41);
  for (std::int32_t m : kSweep) {
    for (std::int32_t n : kSweep) {
      for (std::int32_t k : kSweep) {
        const auto a = random_block(static_cast<std::size_t>(m * k), rng);
        const auto b = random_block(static_cast<std::size_t>(k * n), rng);
        const auto bias = random_block(static_cast<std::size_t>(m), rng);
        std::vector<float> c_ref(static_cast<std::size_t>(m * n), -1.0F);
        std::vector<float> c_simd(static_cast<std::size_t>(m * n), +1.0F);
        ref.gemm_bias(m, n, k, a.data(), k, b.data(), n, bias.data(), c_ref.data(), n);
        kt.gemm_bias(m, n, k, a.data(), k, b.data(), n, bias.data(), c_simd.data(), n);
        EXPECT_BITWISE_EQ(c_ref, c_simd) << " at m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST_F(GemmAvx2Parity, ConvForwardValidBitwiseParity) {
  // Plane widths on both sides of the 8-lane boundary (ow = iw - k + 1),
  // among them the zero-bordered planes of the localizer's 7- and 15-wide
  // frames (iw 9 and 17); channel counts exercising the 4/2/1 register-
  // block groups; one- and seven-row outputs. Bordered sources zero each
  // plane's outer ring and use negative weights only, so every border tap
  // adds a -0 product on both tiers.
  Rng rng(42);
  for (const bool bordered : {false, true}) {
    for (std::int32_t in_c : {1, 3, 8}) {
      for (std::int32_t ih : {3, 9}) {
        for (std::int32_t iw : {3, 5, 8, 9, 10, 15, 16, 17, 33}) {
          for (std::int32_t out_c : {1, 2, 3, 4, 5, 8}) {
            const std::int32_t k = 3;
            const std::int32_t oh = ih - k + 1, ow = iw - k + 1;
            auto src = random_block(static_cast<std::size_t>(in_c * ih * iw), rng);
            auto w = random_block(static_cast<std::size_t>(out_c * in_c * k * k), rng);
            const auto bias = random_block(static_cast<std::size_t>(out_c), rng);
            if (bordered) {
              for (std::int32_t p = 0; p < in_c * ih * iw; ++p) {
                const std::int32_t y = p / iw % ih, x = p % iw;
                if (y == 0 || y == ih - 1 || x == 0 || x == iw - 1) {
                  src[static_cast<std::size_t>(p)] = 0.0F;
                }
              }
              for (float& v : w) v = -std::abs(v);
            }
            std::vector<float> d_ref(static_cast<std::size_t>(out_c * oh * ow), -1.0F);
            std::vector<float> d_simd(d_ref.size(), +1.0F);
            ref.conv_forward_valid(src.data(), in_c, ih, iw, k, out_c, w.data(), bias.data(),
                                   d_ref.data());
            kt.conv_forward_valid(src.data(), in_c, ih, iw, k, out_c, w.data(), bias.data(),
                                  d_simd.data());
            EXPECT_BITWISE_EQ(d_ref, d_simd)
                << " at in_c=" << in_c << " ih=" << ih << " iw=" << iw << " out_c=" << out_c
                << (bordered ? " bordered" : "");
          }
        }
      }
    }
  }
}

TEST_F(GemmAvx2Parity, SkipzeroAndGradInputBitwiseParity) {
  Rng rng(43);
  for (std::int32_t n : kSweep) {
    const std::int32_t m = 5, k = 9;
    auto a = random_block(static_cast<std::size_t>(m * k), rng);
    for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0F;  // exercise the skip
    const auto b = random_block(static_cast<std::size_t>(k * n), rng);
    std::vector<float> c_ref(static_cast<std::size_t>(m * n), 0.5F);
    std::vector<float> c_simd(c_ref);
    std::vector<float> bias_ref(static_cast<std::size_t>(m), 0.0F);
    std::vector<float> bias_simd(bias_ref);
    ref.gemm_accumulate_skipzero(m, n, k, a.data(), k, b.data(), n, c_ref.data(), n,
                                 bias_ref.data());
    kt.gemm_accumulate_skipzero(m, n, k, a.data(), k, b.data(), n, c_simd.data(), n,
                                bias_simd.data());
    EXPECT_BITWISE_EQ(c_ref, c_simd) << " at n=" << n;
    EXPECT_BITWISE_EQ(bias_ref, bias_simd);
  }

  for (std::int32_t iw : {4, 9, 15, 33}) {
    const std::int32_t in_c = 2, ih = 8, k = 3, pad = 1, out_c = 3;
    const std::int32_t oh = ih + 2 * pad - k + 1, ow = iw + 2 * pad - k + 1;
    const auto g = random_block(static_cast<std::size_t>(out_c * oh * ow), rng);
    const auto w = random_block(static_cast<std::size_t>(out_c * in_c * k * k), rng);
    std::vector<float> gi_ref(static_cast<std::size_t>(in_c * ih * iw), -1.0F);
    std::vector<float> gi_simd(gi_ref.size(), +1.0F);
    ref.conv_grad_input(g.data(), w.data(), in_c, ih, iw, k, pad, out_c, gi_ref.data());
    kt.conv_grad_input(g.data(), w.data(), in_c, ih, iw, k, pad, out_c, gi_simd.data());
    EXPECT_BITWISE_EQ(gi_ref, gi_simd) << " at iw=" << iw;
  }
}

TEST(GemmDispatch, ForceScalarPinsActiveTable) {
  // The dispatch runs the table of the active level, which never exceeds
  // what the CPU supports; DL2F_FORCE_SCALAR=1 pins it to the scalar tier
  // (CI's forced-scalar step runs this suite with the variable set).
  EXPECT_EQ(&active_kernels(), &kernels_for(common::active_simd_level()));
  EXPECT_LE(common::active_simd_level(), common::detected_simd_level());
  if (const char* fs = std::getenv("DL2F_FORCE_SCALAR"); fs != nullptr && fs[0] == '1') {
    EXPECT_EQ(common::active_simd_level(), SimdLevel::Scalar);
  }
}

}  // namespace
}  // namespace dl2f::nn::gemm
