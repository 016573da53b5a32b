// ACCUM-ORDER: every kernel reachable from this TU owns one scalar
// accumulator per output element and walks its reduction index strictly
// ascending (bias first, then k = 0..K-1); thread parallelism lives
// above the kernels. The full contract and the +/-0 padding argument are
// in gemm.hpp; the bitwise-parity tests in tests/batch_train_test.cpp
// and tests/gemm_dispatch_test.cpp pin it on every build.
//
// This TU owns the SCALAR tier (the golden reference the SIMD tiers are
// measured against bit for bit), the dispatch itself (the public free
// functions forward to the table picked by common::active_simd_level())
// and im2row, which only copies and so has no tiers.
#include "nn/gemm.hpp"

#include <algorithm>
#include <cassert>

#include "nn/gemm_kernels_impl.hpp"

namespace dl2f::nn::gemm {

namespace {

constexpr GemmKernels kScalarKernels = {
    impl_gemm_bias,
    impl_gemm_accumulate_skipzero,
    impl_conv_forward_valid,
    impl_conv_grad_input,
};

}  // namespace

namespace detail {
// The AVX2 tier table, defined in its own TU so it carries that TU's
// compile flags (gemm_avx2.cpp; declared here to keep the internal seam
// out of the public header).
[[nodiscard]] const GemmKernels& avx2_kernels() noexcept;
}  // namespace detail

const GemmKernels& kernels_for(common::SimdLevel level) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (level == common::SimdLevel::Avx2) return detail::avx2_kernels();
#else
  static_cast<void>(level);  // no AVX2 tier off x86
#endif
  return kScalarKernels;
}

const GemmKernels& active_kernels() noexcept {
  return kernels_for(common::active_simd_level());
}

void gemm_bias(std::int32_t m, std::int32_t n, std::int32_t k, const float* a, std::int32_t lda,
               const float* b, std::int32_t ldb, const float* bias, float* c, std::int32_t ldc) {
  assert(n >= 1 && n <= kSampleBlock);
  active_kernels().gemm_bias(m, n, k, a, lda, b, ldb, bias, c, ldc);
}

void im2row(const float* src, std::int32_t c, std::int32_t h, std::int32_t w, std::int32_t k,
            std::int32_t pad, float* row) {
  // Tap-major fill: one pass per (c, dy, dx) column with the border
  // logic hoisted to row bounds — contiguous source reads, stride-ckk
  // destination stores, no per-element branching.
  const std::int32_t oh = h + 2 * pad - k + 1;
  const std::int32_t ow = w + 2 * pad - k + 1;
  const std::size_t ckk = static_cast<std::size_t>(c * k * k);
  std::size_t q = 0;
  for (std::int32_t ch = 0; ch < c; ++ch) {
    const float* plane = src + static_cast<std::size_t>(ch) * static_cast<std::size_t>(h * w);
    for (std::int32_t dy = 0; dy < k; ++dy) {
      for (std::int32_t dx = 0; dx < k; ++dx, ++q) {
        const std::int32_t x_lo = std::max(0, pad - dx);
        const std::int32_t x_hi = std::min(ow, w + pad - dx);
        for (std::int32_t y = 0; y < oh; ++y) {
          const std::int32_t iy = y + dy - pad;
          float* __restrict dst =
              row + static_cast<std::size_t>(y) * static_cast<std::size_t>(ow) * ckk + q;
          if (iy < 0 || iy >= h) {
            for (std::int32_t x = 0; x < ow; ++x) dst[static_cast<std::size_t>(x) * ckk] = 0.0F;
            continue;
          }
          const float* __restrict srow =
              plane + static_cast<std::size_t>(iy) * w + (x_lo + dx - pad);
          for (std::int32_t x = 0; x < x_lo; ++x) dst[static_cast<std::size_t>(x) * ckk] = 0.0F;
          for (std::int32_t x = x_lo; x < x_hi; ++x) {
            dst[static_cast<std::size_t>(x) * ckk] = srow[x - x_lo];
          }
          for (std::int32_t x = std::max(x_hi, x_lo); x < ow; ++x) {
            dst[static_cast<std::size_t>(x) * ckk] = 0.0F;
          }
        }
      }
    }
  }
}

void gemm_accumulate_skipzero(std::int32_t m, std::int32_t n, std::int32_t k, const float* a,
                              std::int32_t lda, const float* b, std::int32_t ldb, float* c,
                              std::int32_t ldc, float* bias_grad) {
  active_kernels().gemm_accumulate_skipzero(m, n, k, a, lda, b, ldb, c, ldc, bias_grad);
}

void conv_forward_valid(const float* src, std::int32_t in_c, std::int32_t ih, std::int32_t iw,
                        std::int32_t k, std::int32_t out_c, const float* w, const float* bias,
                        float* dst) {
  active_kernels().conv_forward_valid(src, in_c, ih, iw, k, out_c, w, bias, dst);
}

void conv_grad_input(const float* g, const float* w, std::int32_t in_c, std::int32_t ih,
                     std::int32_t iw, std::int32_t k, std::int32_t pad, std::int32_t out_c,
                     float* gi) {
  active_kernels().conv_grad_input(g, w, in_c, ih, iw, k, pad, out_c, gi);
}

}  // namespace dl2f::nn::gemm
