// The shared SGEMM microkernel layer the NN compute backend lowers onto:
// convolutions (the pack-free direct kernel forward, on a zero-bordered
// copy of the plane for Same padding; im2row + the skip-zero GEMM for
// weight gradients) and dense layers (via sample-panel packing) route
// their forward, inference and gradient compute through the kernels
// below. Every arithmetic kernel exists as a table of variants (scalar
// reference, AVX2) selected once at startup by common/cpuid.hpp; the free
// functions of this header always call the active table. im2row only
// moves data, so it is one plain function.
//
// ---------------------------------------------------------------------------
// ACCUM-ORDER: blocking and accumulation-order invariants (the
// determinism contract — tools/lint/determinism_lint.py requires every
// GEMM-path TU to carry one of these blocks)
//
//  * Every output element is ONE scalar accumulator updated with the
//    reduction index strictly ascending: C[i][j] = init + sum_k A[i][k] *
//    B[k][j] evaluated as a single left-to-right chain. No partial sums
//    are split, reordered or combined, so every result is bitwise-
//    identical to the naive per-sample loops in Layer::forward /
//    Layer::backward — the parity contract the whole inference and
//    training stack is tested against.
//  * The kernels are written in "axpy" form (the innermost loop walks a
//    contiguous row of B and C for a fixed reduction index k). Lanes of a
//    SIMD vector then each own a distinct output element, which lets the
//    compiler vectorize WITHOUT reassociating any per-element chain; a
//    dot-product form would need reassociation and is deliberately
//    avoided. Pointers are __restrict so no runtime alias versioning is
//    needed.
//  * SIMD lane-ordering contract (the explicit-microkernel extension of
//    the axpy rule): a vector lane NEVER spans the reduction index — lane
//    j of every SIMD accumulator owns output element C[i][j0+j] for the
//    kernel's whole k loop, advancing by one multiply and one add per
//    step in exactly the scalar chain's order. Multiply and add stay
//    SEPARATE instructions: fused multiply-add skips the intermediate
//    rounding and is banned from these TUs (no FMA intrinsics, and the
//    kernel TUs compile with -ffp-contract=off so the compiler cannot
//    contract mul+add pairs behind our back). Register-blocked kernels
//    (several rows/column-vectors of C held in registers across the k
//    loop) only batch INDEPENDENT chains; holding a chain in a register
//    instead of storing/reloading it cannot change a bit. Masked tail
//    loads/stores cover the remainder lanes so no kernel ever reads past
//    a row. Under this contract every table variant is bitwise-identical
//    to the scalar reference — which is why runtime dispatch is safe in
//    a bitwise-deterministic codebase, and why DL2F_FORCE_SCALAR=1 must
//    reproduce every committed artifact byte for byte.
//  * The zero border of a Same-padded plane adds `w * 0` taps, which the
//    bordered reference loops skip (im2row packs the same taps as 0).
//    Adding that +/-0 term cannot change any accumulator bit: partial
//    sums in these kernels can never be -0 (they start at +0 or at a bias
//    that IEEE-754 round-to-nearest arithmetic cannot drive to -0, and
//    x + (+/-0) == x bitwise for every x except -0). The bitwise parity
//    tests in tests/batch_train_test.cpp pin this empirically for every
//    layer and padding mode, and tests/gemm_dispatch_test.cpp runs the
//    border's -0 products on both tiers.
//  * Thread parallelism lives ABOVE the kernels (nn/train.hpp slices
//    minibatches; one kernel call is always single-threaded), so results
//    never depend on the worker count.
// ---------------------------------------------------------------------------
#pragma once

#include <cstdint>

#include "common/cpuid.hpp"

namespace dl2f::nn::gemm {

/// Sample-panel width of the packed dense kernels: Dense::infer_batch
/// transposes up to kSampleBlock samples at a time into a (features x
/// samples) panel so the GEMM's innermost loop runs across samples.
inline constexpr std::int32_t kSampleBlock = 8;

/// C(m x n) = bias[i] broadcast per row, then += A(m x k) . B(k x n).
/// All matrices row-major with the given leading dimensions. Per-element
/// accumulation order: bias first, then k ascending (the Dense forward
/// shape). Requires 1 <= n <= kSampleBlock: the one caller passes one
/// sample panel, so a row of C fits one 8-lane vector.
void gemm_bias(std::int32_t m, std::int32_t n, std::int32_t k, const float* a, std::int32_t lda,
               const float* b, std::int32_t ldb, const float* bias, float* c, std::int32_t ldc);

/// im2row, CHW -> (OH*OW) x (C*K*K), packed for the weight-gradient GEMM
/// (reduction over pixels in axpy form). Row p is one output pixel
/// (y*OW + x, OH = H + 2*pad - K + 1, OW likewise); column q =
/// (c*K + dy)*K + dx one tap, holding input channel c at (y + dy - pad,
/// x + dx - pad), or 0 outside the border. It only copies, so it has no
/// per-tier variants.
void im2row(const float* src, std::int32_t c, std::int32_t h, std::int32_t w, std::int32_t k,
            std::int32_t pad, float* row);

/// The weight-gradient GEMM: C(m x n) += A(m x k) . B(k x n) with the
/// reference backward's `g == 0` skip — for each (k, i) the scalar
/// A[i][k] is tested and the whole axpy skipped when exactly zero.
/// Bitwise-identical to applying it (the skip only removes +/-0
/// additions) and much faster for ReLU/MaxPool-sparse gradients. Per
/// element the reduction index k still ascends — with A the gradient
/// plane (m = filters, k = pixels) and B the im2row-packed input, every
/// weight accumulates its pixels in the reference order. Each tested
/// non-zero scalar is also folded into bias_grad[i] (the bias-gradient
/// chain is per row, reduction index ascending — again the reference
/// order), saving a separate sparse pass over A.
void gemm_accumulate_skipzero(std::int32_t m, std::int32_t n, std::int32_t k, const float* a,
                              std::int32_t lda, const float* b, std::int32_t ldb, float* c,
                              std::int32_t ldc, float* bias_grad);

/// Direct (pack-free) stride-1 VALID-padding convolution forward of one
/// CHW sample: dst(out_c x OH x OW) = bias[o] + sum over (i, dy, dx)
/// ascending of w(o,i,dy,dx) * src(i, y+dy, x+dx), each output element
/// one register-held chain in exactly the reference forward's tap order.
/// OH = IH - K + 1, OW likewise. Weights are the Conv2D layout (out_c x
/// in_c x K x K, row-major). Every Conv2D forward runs it: Same padding
/// passes a copy of the plane with a zero border of `pad`, whose border
/// taps add `w * 0` (see the invariants above).
void conv_forward_valid(const float* src, std::int32_t in_c, std::int32_t ih, std::int32_t iw,
                        std::int32_t k, std::int32_t out_c, const float* w, const float* bias,
                        float* dst);

/// dLoss/d(input) of one stride-1 convolution sample, as a transposed
/// convolution in axpy form; `gi` is fully overwritten. The reference
/// sweep orders each input element's contributions by (o, y, x)
/// ascending; since y = iy - dy + pad and x = ix - dx + pad that is
/// exactly (o ascending, dy descending, dx descending) here, so per
/// element the accumulation chain is bitwise the reference's. Within one
/// (o, i, dy, dx) tap every x touches a distinct element, making the
/// inner loop a vectorizable row axpy (full-width taps collapse to one
/// long axpy across rows). The reference's g == 0 skip is dropped — it
/// only removes +/-0 additions (see the invariants above).
void conv_grad_input(const float* g, const float* w, std::int32_t in_c, std::int32_t ih,
                     std::int32_t iw, std::int32_t k, std::int32_t pad, std::int32_t out_c,
                     float* gi);

// ---------------------------------------------------------------------------
// Runtime dispatch. The free functions above, im2row aside, call through
// the active table; tests reach individual tiers via kernels_for() to sweep
// remainder-lane shapes for bitwise parity.

/// One tier's kernel set. Entries without a hand-written SIMD form point
/// at the shared portable body (gemm_kernels_impl.hpp), which each tier's
/// TU compiles at its own arch level.
struct GemmKernels {
  void (*gemm_bias)(std::int32_t, std::int32_t, std::int32_t, const float*, std::int32_t,
                    const float*, std::int32_t, const float*, float*, std::int32_t);
  void (*gemm_accumulate_skipzero)(std::int32_t, std::int32_t, std::int32_t, const float*,
                                   std::int32_t, const float*, std::int32_t, float*, std::int32_t,
                                   float*);
  void (*conv_forward_valid)(const float*, std::int32_t, std::int32_t, std::int32_t, std::int32_t,
                             std::int32_t, const float*, const float*, float*);
  void (*conv_grad_input)(const float*, const float*, std::int32_t, std::int32_t, std::int32_t,
                          std::int32_t, std::int32_t, std::int32_t, float*);
};

/// The kernel table of one tier. Requesting a tier the CPU cannot run is
/// the caller's error (tests query common::detected_simd_level() first);
/// on non-x86 builds every tier aliases the scalar table.
[[nodiscard]] const GemmKernels& kernels_for(common::SimdLevel level) noexcept;

/// The table the free functions dispatch through:
/// kernels_for(common::active_simd_level()).
[[nodiscard]] const GemmKernels& active_kernels() noexcept;

}  // namespace dl2f::nn::gemm
