// INTERNAL header: portable kernel bodies shared by the dispatch tiers.
//
// Textually included by gemm.cpp (scalar reference) and gemm_avx2.cpp.
// Everything lives in an anonymous namespace ON PURPOSE:
// each tier TU compiles its own copy at that TU's architecture level
// (the AVX2 TU's copies auto-vectorize ref_axpy with ymm registers at
// -O3 -mavx2 -ffp-contract=off), and internal linkage stops the linker
// from ODR-merging the copies back into one. The bodies, one per
// GemmKernels entry: gemm_bias (dense forward), the skip-zero GEMM (conv
// weight gradients), the direct conv forward (every Conv2D padding) and
// the transposed-conv input gradient. Every body follows the
// ACCUM-ORDER contract in gemm.hpp; the explicit intrinsic kernels in
// gemm_avx2.cpp replace only gemm_bias and the conv forward, where
// hand-written SIMD beats this portable form.
//
// ACCUM-ORDER: every kernel in this header owns one scalar accumulator
// per output element and walks its reduction index strictly ascending
// (bias first, then k = 0..K-1). The full contract is the block in
// nn/gemm.hpp.
#pragma once

#include <algorithm>
#include <cstdint>

namespace dl2f::nn::gemm {
namespace {

/// c[0..n) += s * b[0..n). The innermost kernel: lane-parallel over
/// output elements, never across the reduction index, so vectorization
/// cannot reassociate any per-element chain.
inline void ref_axpy(std::int32_t n, float s, const float* __restrict b, float* __restrict c) {
  for (std::int32_t j = 0; j < n; ++j) c[j] += s * b[j];
}

inline void impl_gemm_bias(std::int32_t m, std::int32_t n, std::int32_t k, const float* a,
                           std::int32_t lda, const float* b, std::int32_t ldb, const float* bias,
                           float* c, std::int32_t ldc) {
  for (std::int32_t i = 0; i < m; ++i) {
    float* __restrict cr = c + static_cast<std::size_t>(i) * static_cast<std::size_t>(ldc);
    const float bi = bias[i];
    for (std::int32_t j = 0; j < n; ++j) cr[j] = bi;
    const float* ar = a + static_cast<std::size_t>(i) * static_cast<std::size_t>(lda);
    for (std::int32_t p = 0; p < k; ++p) {
      ref_axpy(n, ar[p], b + static_cast<std::size_t>(p) * static_cast<std::size_t>(ldb), cr);
    }
  }
}

inline void impl_gemm_accumulate_skipzero(std::int32_t m, std::int32_t n, std::int32_t k,
                                          const float* a, std::int32_t lda, const float* b,
                                          std::int32_t ldb, float* c, std::int32_t ldc,
                                          float* bias_grad) {
  // The reduction index is the outer loop here so each scalar A[i][p] is
  // loaded (and tested) once; per element the order is still p ascending.
  for (std::int32_t p = 0; p < k; ++p) {
    const float* __restrict br = b + static_cast<std::size_t>(p) * static_cast<std::size_t>(ldb);
    for (std::int32_t i = 0; i < m; ++i) {
      const float s = a[static_cast<std::size_t>(i) * static_cast<std::size_t>(lda) + p];
      if (s == 0.0F) continue;
      bias_grad[i] += s;
      ref_axpy(n, s, br, c + static_cast<std::size_t>(i) * static_cast<std::size_t>(ldc));
    }
  }
}

inline void impl_conv_forward_valid(const float* src, std::int32_t in_c, std::int32_t ih,
                                    std::int32_t iw, std::int32_t k, std::int32_t out_c,
                                    const float* w, const float* bias, float* dst) {
  // Per output row: init to bias, then accumulate the (i, dy, dx) taps
  // ascending — the reference forward's exact chain, with each tap one
  // shifted-row axpy so lanes stay parallel over output columns.
  const std::int32_t oh = ih - k + 1;
  const std::int32_t ow = iw - k + 1;
  for (std::int32_t o = 0; o < out_c; ++o) {
    const float* wo = w + static_cast<std::size_t>(o) * static_cast<std::size_t>(in_c * k * k);
    const float bo = bias[o];
    for (std::int32_t y = 0; y < oh; ++y) {
      float* __restrict out_row =
          dst + (static_cast<std::size_t>(o) * oh + static_cast<std::size_t>(y)) * ow;
      for (std::int32_t x = 0; x < ow; ++x) out_row[x] = bo;
      for (std::int32_t i = 0; i < in_c; ++i) {
        for (std::int32_t dy = 0; dy < k; ++dy) {
          const float* in_row =
              src + (static_cast<std::size_t>(i) * ih + static_cast<std::size_t>(y + dy)) * iw;
          const float* w_row = wo + static_cast<std::size_t>((i * k + dy) * k);
          for (std::int32_t dx = 0; dx < k; ++dx) {
            ref_axpy(ow, w_row[dx], in_row + dx, out_row);
          }
        }
      }
    }
  }
}

inline void impl_conv_grad_input(const float* g, const float* w, std::int32_t in_c,
                                 std::int32_t ih, std::int32_t iw, std::int32_t k, std::int32_t pad,
                                 std::int32_t out_c, float* gi) {
  const std::int32_t oh = ih + 2 * pad - k + 1;
  const std::int32_t ow = iw + 2 * pad - k + 1;
  const std::size_t p = static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
  const std::size_t chw =
      static_cast<std::size_t>(in_c) * static_cast<std::size_t>(ih) * static_cast<std::size_t>(iw);
  for (std::size_t j = 0; j < chw; ++j) gi[j] = 0.0F;
  for (std::int32_t o = 0; o < out_c; ++o) {
    const float* gplane = g + static_cast<std::size_t>(o) * p;
    for (std::int32_t i = 0; i < in_c; ++i) {
      for (std::int32_t dy = k - 1; dy >= 0; --dy) {
        const float* w_row = w + (((o * in_c + i) * k + dy) * k);
        const std::int32_t y_lo = std::max(0, pad - dy);
        const std::int32_t y_hi = std::min(oh, ih + pad - dy);
        for (std::int32_t dx = k - 1; dx >= 0; --dx) {
          const float wv = w_row[dx];
          const std::int32_t x_lo = std::max(0, pad - dx);
          const std::int32_t x_hi = std::min(ow, iw + pad - dx);
          if (x_hi <= x_lo) continue;
          if (x_lo == 0 && x_hi == ow && ow == iw) {
            // Full-width tap with matching row strides: the whole (y, x)
            // block is one contiguous axpy in both planes (every x still
            // touches a distinct element, rows merely concatenate).
            const float* __restrict g_row = gplane + static_cast<std::size_t>(y_lo) * ow;
            float* __restrict gi_row = gi + (i * ih + y_lo + dy - pad) * iw + (dx - pad);
            ref_axpy((y_hi - y_lo) * ow, wv, g_row, gi_row);
            continue;
          }
          for (std::int32_t y = y_lo; y < y_hi; ++y) {
            const float* __restrict g_row = gplane + static_cast<std::size_t>(y) * ow + x_lo;
            float* __restrict gi_row = gi + (i * ih + y + dy - pad) * iw + (x_lo + dx - pad);
            ref_axpy(x_hi - x_lo, wv, g_row, gi_row);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dl2f::nn::gemm
