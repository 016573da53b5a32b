// ACCUM-ORDER: every kernel reachable from this TU owns one scalar
// accumulator per output element and walks its reduction index strictly
// ascending (bias first, then k = 0..K-1); cache blocking is over output
// columns only and thread parallelism lives above the kernels. The full
// contract and the +/-0 padding argument are in gemm.hpp; the bitwise-
// parity tests in tests/batch_train_test.cpp and tests/gemm_dispatch_
// test.cpp pin it on every build.
//
// This TU owns the SCALAR tier (the golden reference the SIMD tiers are
// measured against bit for bit) and the dispatch itself: the public free
// functions forward to the table picked by common::active_simd_level().
#include "nn/gemm.hpp"

#include "nn/gemm_kernels_impl.hpp"

namespace dl2f::nn::gemm {

namespace {

void scalar_gemm_bias(std::int32_t m, std::int32_t n, std::int32_t k, const float* a,
                      std::int32_t lda, const float* b, std::int32_t ldb, const float* bias,
                      float* c, std::int32_t ldc) {
  impl_gemm_bias(ref_axpy, m, n, k, a, lda, b, ldb, bias, c, ldc);
}

void scalar_skipzero(std::int32_t m, std::int32_t n, std::int32_t k, const float* a,
                     std::int32_t lda, const float* b, std::int32_t ldb, float* c, std::int32_t ldc,
                     float* bias_grad) {
  impl_gemm_accumulate_skipzero(ref_axpy, m, n, k, a, lda, b, ldb, c, ldc, bias_grad);
}

void scalar_conv_grad_input(const float* g, const float* w, std::int32_t in_c, std::int32_t ih,
                            std::int32_t iw, std::int32_t k, std::int32_t pad, std::int32_t out_c,
                            float* gi) {
  impl_conv_grad_input(ref_axpy, g, w, in_c, ih, iw, k, pad, out_c, gi);
}

constexpr GemmKernels kScalarKernels = {
    scalar_gemm_bias,        impl_im2col,           impl_im2row, scalar_skipzero,
    impl_conv_forward_valid, scalar_conv_grad_input,
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
  active_kernels().gemm_bias(m, n, k, a, lda, b, ldb, bias, c, ldc);
}

void im2col(const float* src, std::int32_t c, std::int32_t h, std::int32_t w, std::int32_t k,
            std::int32_t pad, float* col) {
  active_kernels().im2col(src, c, h, w, k, pad, col);
}

void im2row(const float* src, std::int32_t c, std::int32_t h, std::int32_t w, std::int32_t k,
            std::int32_t pad, float* row) {
  active_kernels().im2row(src, c, h, w, k, pad, row);
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

void conv_weight_bias_grad_direct(const float* g, const float* src, std::int32_t in_c,
                                  std::int32_t ih, std::int32_t iw, std::int32_t k,
                                  std::int32_t pad, std::int32_t out_c, float* gw, float* gb) {
  // Branch-heavy sparse sweep: no profitable SIMD form, so it stays a
  // plain (undispatched) scalar kernel.
  const std::int32_t oh = ih + 2 * pad - k + 1;
  const std::int32_t ow = iw + 2 * pad - k + 1;
  for (std::int32_t o = 0; o < out_c; ++o) {
    float* gw_o = gw + static_cast<std::size_t>(o) * static_cast<std::size_t>(in_c * k * k);
    for (std::int32_t y = 0; y < oh; ++y) {
      const std::int32_t dy_lo = std::max(0, pad - y);
      const std::int32_t dy_hi = std::min(k, ih + pad - y);
      for (std::int32_t x = 0; x < ow; ++x) {
        const float gv = g[(o * oh + y) * ow + x];
        if (gv == 0.0F) continue;
        gb[o] += gv;
        const std::int32_t dx_lo = std::max(0, pad - x);
        const std::int32_t dx_hi = std::min(k, iw + pad - x);
        for (std::int32_t i = 0; i < in_c; ++i) {
          for (std::int32_t dy = dy_lo; dy < dy_hi; ++dy) {
            const float* in_row = src + (i * ih + y + dy - pad) * iw + (x - pad);
            float* gw_row = gw_o + (i * k + dy) * k;
            for (std::int32_t dx = dx_lo; dx < dx_hi; ++dx) gw_row[dx] += gv * in_row[dx];
          }
        }
      }
    }
  }
}

std::int64_t nonzero_count(const float* v, std::size_t n) {
  std::int64_t count = 0;
  for (std::size_t j = 0; j < n; ++j) count += static_cast<std::int64_t>(v[j] != 0.0F);
  return count;
}

}  // namespace dl2f::nn::gemm
