// Batched (GEMM-lowered) compute paths for every layer: infer_batch and
// backward_batch, split out of layers.cpp so this TU can carry the kernel
// optimization flags (see CMakeLists.txt) while the per-sample reference
// forward/backward in layers.cpp keeps the project defaults — it is the
// parity oracle the tests and bench_inference's gate hold these paths to,
// and no timed path runs it. Every function here is bitwise-identical per
// sample to its layers.cpp reference counterpart.
//
// ACCUM-ORDER: every lowering in this TU preserves the reference tap
// order exactly — convolutions run the direct kernel's (i, dy, dx) chain
// (on a zero-bordered plane for Same padding), im2row columns are packed
// in that order, sample panels keep per-sample accumulator chains
// intact, and all reductions delegate to the gemm.hpp kernels, which
// accumulate each output element with the reduction index strictly
// ascending (see the contract block in nn/gemm.hpp).
#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/layers.hpp"

namespace dl2f::nn {

void Conv2D::infer_batch(const Tensor4& in, Tensor4& out, float* scratch) const {
  assert(in.channels() == steps_ * in_c_ && out.channels() == steps_ * out_c_ &&
         in.batch() == out.batch());
  // One lowering for both paddings: the pack-free direct kernel, which
  // walks forward()'s (i, dy, dx)-ascending chain per output element.
  // Same padding first copies each (sample, step) group into a plane with
  // a zero border of pad_, so the kernel adds the border taps as w * 0 —
  // +/-0 terms that cannot change an accumulator bit (see gemm.hpp).
  // Groups are contiguous, samples ascending and steps ascending within
  // each, as in forward().
  const std::int32_t ih = in.height(), iw = in.width();
  const std::int32_t ph = ih + 2 * pad_, pw = iw + 2 * pad_;
  const std::size_t in_group = static_cast<std::size_t>(in_c_) * static_cast<std::size_t>(ih * iw);
  const std::size_t out_group =
      static_cast<std::size_t>(out_c_) * static_cast<std::size_t>(out.height() * out.width());
  const std::size_t groups = static_cast<std::size_t>(in.batch()) * static_cast<std::size_t>(steps_);
  // Every layer shares the arena, so the border is rewritten per call;
  // the groups below overwrite only the interior.
  if (pad_ > 0) std::fill_n(scratch, static_cast<std::size_t>(in_c_) * ph * pw, 0.0F);
  for (std::size_t g = 0; g < groups; ++g) {
    const float* src = in.data().data() + g * in_group;
    if (pad_ > 0) {
      const float* from = src;
      for (std::int32_t i = 0; i < in_c_; ++i) {
        float* to = scratch + (static_cast<std::size_t>(i) * ph + pad_) * pw + pad_;
        for (std::int32_t y = 0; y < ih; ++y, from += iw, to += pw) std::copy_n(from, iw, to);
      }
      src = scratch;
    }
    gemm::conv_forward_valid(src, in_c_, ph, pw, k_, out_c_, weights_.value.data(),
                             bias_.value.data(), out.data().data() + g * out_group);
  }
}

void Conv2D::backward_batch(const Tensor4& grad_out, const Tensor4& in, const Tensor4& /*out*/,
                            Tensor4& grad_in, std::span<float* const> param_grads, float* scratch,
                            bool need_input_grad) const {
  assert(grad_out.channels() == steps_ * out_c_ && in.channels() == steps_ * in_c_ &&
         param_grads.size() == 2);
  float* const gw = param_grads[0];
  float* const gb = param_grads[1];
  const std::int32_t ih = in.height(), iw = in.width();
  const std::int32_t p = grad_out.height() * grad_out.width();
  const float* wt = weights_.value.data();
  const std::size_t in_group = static_cast<std::size_t>(in_c_) * static_cast<std::size_t>(ih * iw);
  const std::size_t out_group = static_cast<std::size_t>(out_c_) * static_cast<std::size_t>(p);
  const std::size_t groups = static_cast<std::size_t>(in.batch()) * static_cast<std::size_t>(steps_);

  // Groups ascending (samples, then steps within each): the order the
  // reference backward accumulates the shared bank's gradient when run
  // sequentially over the batch.
  for (std::size_t grp = 0; grp < groups; ++grp) {
    const float* g = grad_out.data().data() + grp * out_group;
    const float* src = in.data().data() + grp * in_group;

    // Weight + bias gradients, pixels ascending per accumulator (the
    // reference backward's order) with its g == 0 skip. Dense, wide
    // gradient planes go through im2row + the skip-zero GEMM; sparse ones
    // (ReLU/MaxPool upstream zeroes most of the detector's plane) or
    // narrow filter banks (the localizer's 1-filter head) take the
    // pack-free direct sweep — both orders are the reference's, so the
    // per-group choice cannot change a single bit.
    const std::int64_t nnz = gemm::nonzero_count(g, out_group);
    if (out_c_ >= 4 && nnz * 4 >= static_cast<std::int64_t>(out_c_) * p) {
      const std::int32_t ckk = in_c_ * k_ * k_;
      gemm::im2row(src, in_c_, ih, iw, k_, pad_, scratch);
      gemm::gemm_accumulate_skipzero(out_c_, ckk, p, g, p, scratch, ckk, gw, ckk, gb);
    } else {
      gemm::conv_weight_bias_grad_direct(g, src, in_c_, ih, iw, k_, pad_, out_c_, gw, gb);
    }

    // Input gradient: the transposed-convolution axpy kernel (bitwise the
    // reference's accumulation order — see gemm.hpp).
    if (!need_input_grad) continue;
    gemm::conv_grad_input(g, wt, in_c_, ih, iw, k_, pad_, out_c_,
                          grad_in.data().data() + grp * in_group);
  }
}

void MaxPool2D::infer_batch(const Tensor4& in, Tensor4& out, float* /*scratch*/) const {
  assert(in.channels() == out.channels() && in.batch() == out.batch());
  const std::int32_t ih = in.height(), iw = in.width();
  const std::int32_t oh = out.height(), ow = out.width();
  for (std::int32_t s = 0; s < in.batch(); ++s) {
    const float* src = in.sample(s);
    float* dst = out.sample(s);
    for (std::int32_t c = 0; c < out.channels(); ++c) {
      for (std::int32_t y = 0; y < oh; ++y) {
        for (std::int32_t x = 0; x < ow; ++x) {
          float best = -std::numeric_limits<float>::infinity();
          for (std::int32_t dy = 0; dy < pool_; ++dy) {
            const float* row = src + (c * ih + y * pool_ + dy) * iw + x * pool_;
            for (std::int32_t dx = 0; dx < pool_; ++dx) {
              if (row[dx] > best) best = row[dx];
            }
          }
          dst[(c * oh + y) * ow + x] = best;
        }
      }
    }
  }
}

void MaxPool2D::backward_batch(const Tensor4& grad_out, const Tensor4& in, const Tensor4& out,
                               Tensor4& grad_in, std::span<float* const> /*param_grads*/,
                               float* /*scratch*/, bool need_input_grad) const {
  if (!need_input_grad) return;
  // Recompute each window's argmax exactly as forward() finds it (strict
  // > comparison in (dy, dx) order selects the FIRST maximum), then
  // scatter the output gradient — bitwise-identical to the reference
  // backward's cached-argmax scatter.
  const std::int32_t ih = in.height(), iw = in.width();
  const std::int32_t oh = out.height(), ow = out.width();
  for (std::int32_t s = 0; s < in.batch(); ++s) {
    const float* src = in.sample(s);
    const float* g = grad_out.sample(s);
    float* gi = grad_in.sample(s);
    std::fill(gi, gi + grad_in.sample_size(), 0.0F);
    for (std::int32_t c = 0; c < in.channels(); ++c) {
      for (std::int32_t y = 0; y < oh; ++y) {
        for (std::int32_t x = 0; x < ow; ++x) {
          float best = -std::numeric_limits<float>::infinity();
          std::int32_t best_flat = -1;
          for (std::int32_t dy = 0; dy < pool_; ++dy) {
            for (std::int32_t dx = 0; dx < pool_; ++dx) {
              const std::int32_t iy = y * pool_ + dy;
              const std::int32_t ix = x * pool_ + dx;
              const float v = src[(c * ih + iy) * iw + ix];
              if (v > best) {
                best = v;
                best_flat = (c * ih + iy) * iw + ix;
              }
            }
          }
          // best_flat is -1 only for an all-NaN window (diverged
          // training); the reference path's cached argmax scatter is an
          // out-of-bounds write there — drop the gradient instead.
          if (best_flat >= 0) gi[best_flat] += g[(c * oh + y) * ow + x];
        }
      }
    }
  }
}

void ReLU::infer_batch(const Tensor4& in, Tensor4& out, float* /*scratch*/) const {
  assert(in.size() == out.size());
  const float* src = in.data().data();
  float* dst = out.data().data();
  for (std::size_t i = 0; i < in.size(); ++i) dst[i] = std::max(src[i], 0.0F);
}

void ReLU::backward_batch(const Tensor4& grad_out, const Tensor4& in, const Tensor4& /*out*/,
                          Tensor4& grad_in, std::span<float* const> /*param_grads*/,
                          float* /*scratch*/, bool need_input_grad) const {
  if (!need_input_grad) return;
  const float* g = grad_out.data().data();
  const float* src = in.data().data();
  float* gi = grad_in.data().data();
  const std::size_t n = grad_out.size();
  for (std::size_t i = 0; i < n; ++i) gi[i] = src[i] <= 0.0F ? 0.0F : g[i];
}

void Sigmoid::infer_batch(const Tensor4& in, Tensor4& out, float* /*scratch*/) const {
  assert(in.size() == out.size());
  const float* src = in.data().data();
  float* dst = out.data().data();
  for (std::size_t i = 0; i < in.size(); ++i) dst[i] = 1.0F / (1.0F + std::exp(-src[i]));
}

void Sigmoid::backward_batch(const Tensor4& grad_out, const Tensor4& /*in*/, const Tensor4& out,
                             Tensor4& grad_in, std::span<float* const> /*param_grads*/,
                             float* /*scratch*/, bool need_input_grad) const {
  if (!need_input_grad) return;
  const float* g = grad_out.data().data();
  const float* so = out.data().data();
  float* gi = grad_in.data().data();
  const std::size_t n = grad_out.size();
  for (std::size_t i = 0; i < n; ++i) {
    const float sv = so[i];
    gi[i] = g[i] * (sv * (1.0F - sv));
  }
}

void Flatten::infer_batch(const Tensor4& in, Tensor4& out, float* /*scratch*/) const {
  assert(in.size() == out.size());
  std::copy(in.data().begin(), in.data().end(), out.data().begin());
}

void Flatten::backward_batch(const Tensor4& grad_out, const Tensor4& /*in*/,
                             const Tensor4& /*out*/, Tensor4& grad_in,
                             std::span<float* const> /*param_grads*/, float* /*scratch*/,
                             bool need_input_grad) const {
  if (!need_input_grad) return;
  assert(grad_out.size() == grad_in.size());
  std::copy(grad_out.data().begin(), grad_out.data().end(), grad_in.data().begin());
}

void Dense::infer_batch(const Tensor4& in, Tensor4& out, float* scratch) const {
  assert(static_cast<std::int32_t>(in.sample_size()) == steps_ * in_f_ &&
         static_cast<std::int32_t>(out.sample_size()) == positions() * out_f_);
  // Column-panel GEMM: up to kSampleBlock (sample, position) columns are
  // transposed into a (window*in_f x panel) matrix so the kernel's
  // innermost loop runs across columns; per (output, column) element the
  // window still accumulates in forward()'s ascending order, bitwise-
  // identical per sample.
  const std::int32_t kd = window_ * in_f_;
  const std::int32_t npos = positions();
  const std::int32_t cols = in.batch() * npos;
  const float* wt = weights_.value.data();
  float* const xt = scratch;                                            // kd x panel
  float* const cp = scratch + static_cast<std::size_t>(kd) *
                                  static_cast<std::size_t>(gemm::kSampleBlock);  // out_f x panel
  for (std::int32_t c0 = 0; c0 < cols; c0 += gemm::kSampleBlock) {
    const std::int32_t bn = std::min(gemm::kSampleBlock, cols - c0);
    for (std::int32_t j = 0; j < bn; ++j) {
      const std::int32_t c = c0 + j;
      const float* src = in.sample(c / npos) + static_cast<std::size_t>((c % npos) * in_f_);
      for (std::int32_t q = 0; q < kd; ++q) xt[static_cast<std::size_t>(q) * bn + j] = src[q];
    }
    gemm::gemm_bias(out_f_, bn, kd, wt, kd, xt, bn, bias_.value.data(), cp, bn);
    for (std::int32_t j = 0; j < bn; ++j) {
      const std::int32_t c = c0 + j;
      float* dst = out.sample(c / npos) + static_cast<std::size_t>((c % npos) * out_f_);
      for (std::int32_t o = 0; o < out_f_; ++o) dst[o] = cp[static_cast<std::size_t>(o) * bn + j];
    }
  }
}

void Dense::backward_batch(const Tensor4& grad_out, const Tensor4& in, const Tensor4& /*out*/,
                           Tensor4& grad_in, std::span<float* const> param_grads,
                           float* /*scratch*/, bool need_input_grad) const {
  assert(static_cast<std::int32_t>(grad_out.sample_size()) == positions() * out_f_ &&
         param_grads.size() == 2);
  // The reference backward's loops verbatim, samples ascending: the layers
  // are narrow, so plain axpy loops beat a pack + GEMM round-trip and keep
  // the accumulation chains identical.
  float* const gw = param_grads[0];
  float* const gb = param_grads[1];
  const std::int32_t kd = window_ * in_f_;
  const float* wt = weights_.value.data();
  for (std::int32_t s = 0; s < in.batch(); ++s) {
    const float* xs = in.sample(s);
    const float* gs = grad_out.sample(s);
    float* gi_s = need_input_grad ? grad_in.sample(s) : nullptr;
    if (gi_s != nullptr) std::fill(gi_s, gi_s + grad_in.sample_size(), 0.0F);
    for (std::int32_t u = 0; u < positions(); ++u) {
      const float* x = xs + static_cast<std::size_t>(u * in_f_);
      float* gi = gi_s == nullptr ? nullptr : gi_s + static_cast<std::size_t>(u * in_f_);
      for (std::int32_t o = 0; o < out_f_; ++o) {
        const float gv = gs[static_cast<std::size_t>(u * out_f_ + o)];
        gb[o] += gv;
        float* __restrict gw_row = gw + static_cast<std::size_t>(o) * static_cast<std::size_t>(kd);
        const float* __restrict w_row =
            wt + static_cast<std::size_t>(o) * static_cast<std::size_t>(kd);
        for (std::int32_t q = 0; q < kd; ++q) gw_row[q] += gv * x[q];
        if (gi != nullptr) {
          for (std::int32_t q = 0; q < kd; ++q) gi[q] += gv * w_row[q];
        }
      }
    }
  }
}

}  // namespace dl2f::nn
