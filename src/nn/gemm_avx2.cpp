// The 8-lane (AVX2) kernel tier.
//
// ACCUM-ORDER: every explicit kernel below is lane-parallel over output
// elements only — lane j of a ymm accumulator owns output column j0+j
// for the whole k loop, advancing one separate multiply and one separate
// add per step. No FMA intrinsics are used and the TU compiles with
// -ffp-contract=off, so mul and add stay distinct roundings exactly as
// in the scalar reference; register blocking only batches chains that
// belong to different output elements. Ragged edges use maskload /
// maskstore (never reading past the buffer) or re-anchored chunks that
// recompute the same bits; either way each element's reduction order is
// the reference's, so the tier is bitwise-identical to scalar.
// tests/gemm_dispatch_test.cpp sweeps remainder shapes to pin that. Two
// kernels are hand-written: the dense forward (gemm_bias) and the conv
// forward. The skip-zero GEMM and the conv input gradient reuse the
// shared portable bodies (gemm_kernels_impl.hpp), whose ref_axpy this
// TU's -O3 -mavx2 flags vectorize.
//
// Off x86 the TU is empty: detected_simd_level() is Scalar there, and
// kernels_for() answers every tier with the scalar table.
#if defined(__x86_64__) || defined(__i386__)
#include "nn/gemm.hpp"

#include "nn/gemm_kernels_impl.hpp"

#include <immintrin.h>
#include <type_traits>

namespace dl2f::nn::gemm {
namespace {

/// Lane mask with the low r (1..8) int32 lanes active. maskload with an
/// inactive lane performs no memory access for it, which is what makes
/// the ragged tails below safe for ASan and page boundaries alike.
inline __m256i tail_mask(std::int32_t r) {
  alignas(32) static constexpr std::int32_t kMaskSrc[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                                            0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kMaskSrc + (8 - r)));
}

void avx2_gemm_bias(std::int32_t m, std::int32_t n, std::int32_t k, const float* a,
                    std::int32_t lda, const float* b, std::int32_t ldb, const float* bias, float* c,
                    std::int32_t ldc) {
  // n <= 8 (gemm.hpp), so one ymm accumulator holds a whole row of C
  // across the k loop. Below 8 columns lanes n..7 are masked off, so no
  // load or store leaves a row.
  const __m256i mask = tail_mask(n);
  for (std::int32_t i = 0; i < m; ++i) {
    const float* ai = a + static_cast<std::size_t>(i) * static_cast<std::size_t>(lda);
    float* ci = c + static_cast<std::size_t>(i) * static_cast<std::size_t>(ldc);
    __m256 acc = _mm256_set1_ps(bias[i]);
    const float* bp = b;
    if (n == 8) {
      for (std::int32_t p = 0; p < k; ++p, bp += ldb) {
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(ai[p]), _mm256_loadu_ps(bp)));
      }
      _mm256_storeu_ps(ci, acc);
    } else {
      for (std::int32_t p = 0; p < k; ++p, bp += ldb) {
        acc = _mm256_add_ps(acc,
                            _mm256_mul_ps(_mm256_set1_ps(ai[p]), _mm256_maskload_ps(bp, mask)));
      }
      _mm256_maskstore_ps(ci, mask, acc);
    }
  }
}

void avx2_conv_forward_valid(const float* src, std::int32_t in_c, std::int32_t ih, std::int32_t iw,
                             std::int32_t k, std::int32_t out_c, const float* w, const float* bias,
                             float* dst) {
  // Taps (i, dy, dx) ascend per accumulator — the reference chain. The
  // reduction chain itself may never be split (that would reassociate),
  // so instruction-level parallelism comes from batching INDEPENDENT
  // chains: 8 accumulators per inner loop, OC output channels x 8/OC
  // 8-column chunks, the chunks sharing each tap's weight broadcasts and
  // the channels each chunk's input loads. Each output row splits into
  // chunks anchored at x = 0, 8, ...; full chunks load unmasked:
  // x + dx + 8 <= (ow - 8) + dx + 8 = ow + dx <= iw, always in-bounds. A
  // ragged tail (ow not a multiple of 8) re-anchors the last chunk at
  // x = ow - 8 when ow >= 8: overlapped lanes recompute the exact same
  // chains and store the exact same bits — far cheaper than per-tap
  // maskloads. Only ow < 8 needs masked loads and stores. A group that
  // runs past the last chunk repeats it, again storing the same bits.
  const std::int32_t oh = ih - k + 1;
  const std::int32_t ow = iw - k + 1;
  if (oh <= 0 || ow <= 0) return;
  const std::int32_t taps = in_c * k * k;
  const __m256i mask = tail_mask(std::min<std::int32_t>(8, ow));
  const std::int32_t per_row = (ow + 7) / 8;
  // Offset of element (y, x) of plane p in a stack of rows x cols planes.
  const auto at = [](std::int32_t p, std::int32_t rows, std::int32_t y, std::int32_t x,
                     std::int32_t cols) {
    return (static_cast<std::size_t>(p) * static_cast<std::size_t>(rows) +
            static_cast<std::size_t>(y)) * static_cast<std::size_t>(cols) +
           static_cast<std::size_t>(x);
  };
  // One inner kernel per (channel group, chunk set): chunk n's first
  // output is (ys[n], xs[n]).
  const auto group = [&]<std::int32_t OC, bool Masked>(std::integral_constant<std::int32_t, OC>,
                                                       std::bool_constant<Masked>, std::int32_t o,
                                                       const std::int32_t* ys,
                                                       const std::int32_t* xs) {
    constexpr std::int32_t kChunks = 8 / OC;
    const auto load = [&](const float* p) {
      return Masked ? _mm256_maskload_ps(p, mask) : _mm256_loadu_ps(p);
    };
    __m256 acc[kChunks][OC];
    for (std::int32_t c = 0; c < OC; ++c) {
      for (std::int32_t n = 0; n < kChunks; ++n) acc[n][c] = _mm256_set1_ps(bias[o + c]);
    }
    const float* wbase = w + static_cast<std::size_t>(o) * static_cast<std::size_t>(taps);
    for (std::int32_t i = 0; i < in_c; ++i) {
      for (std::int32_t dy = 0; dy < k; ++dy) {
        const float* r[kChunks];
        for (std::int32_t n = 0; n < kChunks; ++n) r[n] = src + at(i, ih, ys[n] + dy, xs[n], iw);
        const std::size_t w_off = static_cast<std::size_t>((i * k + dy) * k);
        for (std::int32_t dx = 0; dx < k; ++dx) {
          __m256 v[kChunks];
          for (std::int32_t n = 0; n < kChunks; ++n) v[n] = load(r[n] + dx);
          for (std::int32_t c = 0; c < OC; ++c) {
            const __m256 wv = _mm256_set1_ps(
                wbase[static_cast<std::size_t>(c) * static_cast<std::size_t>(taps) + w_off +
                      static_cast<std::size_t>(dx)]);
            for (std::int32_t n = 0; n < kChunks; ++n) {
              acc[n][c] = _mm256_add_ps(acc[n][c], _mm256_mul_ps(wv, v[n]));
            }
          }
        }
      }
    }
    for (std::int32_t c = 0; c < OC; ++c) {
      for (std::int32_t n = 0; n < kChunks; ++n) {
        float* out = dst + at(o + c, oh, ys[n], xs[n], ow);
        if constexpr (Masked) {
          _mm256_maskstore_ps(out, mask, acc[n][c]);
        } else {
          _mm256_storeu_ps(out, acc[n][c]);
        }
      }
    }
  };
  const auto run = [&](auto masked, std::int32_t oc, std::int32_t o, const std::int32_t* ys,
                       const std::int32_t* xs) {
    if (oc == 4) {
      group(std::integral_constant<std::int32_t, 4>{}, masked, o, ys, xs);
    } else if (oc == 2) {
      group(std::integral_constant<std::int32_t, 2>{}, masked, o, ys, xs);
    } else {
      group(std::integral_constant<std::int32_t, 1>{}, masked, o, ys, xs);
    }
  };
  for (std::int32_t o = 0; o < out_c;) {
    const std::int32_t oc = out_c - o >= 4 ? 4 : (out_c - o >= 2 ? 2 : 1);
    for (std::int32_t y = 0, j = 0; y < oh;) {
      // The next 8 / oc chunks in row-major order; past the plane's last
      // chunk, repeat it.
      std::int32_t ys[8] = {}, xs[8] = {};
      for (std::int32_t n = 0; n < 8 / oc; ++n) {
        if (y == oh) {
          ys[n] = ys[n - 1];
          xs[n] = xs[n - 1];
          continue;
        }
        ys[n] = y;
        xs[n] = std::min(8 * j, std::max(ow - 8, 0));
        if (++j == per_row) {
          j = 0;
          ++y;
        }
      }
      if (ow < 8) {
        run(std::true_type{}, oc, o, ys, xs);
      } else {
        run(std::false_type{}, oc, o, ys, xs);
      }
    }
    o += oc;
  }
}

constexpr GemmKernels kAvx2Kernels = {
    avx2_gemm_bias,
    impl_gemm_accumulate_skipzero,
    avx2_conv_forward_valid,
    impl_conv_grad_input,
};

}  // namespace

namespace detail {
const GemmKernels& avx2_kernels() noexcept { return kAvx2Kernels; }
}  // namespace detail

}  // namespace dl2f::nn::gemm
#endif
