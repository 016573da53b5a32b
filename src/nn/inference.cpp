#include "nn/inference.hpp"

#include <algorithm>

#include "common/debug_hooks.hpp"
#include "nn/model.hpp"

namespace dl2f::nn {

namespace {

/// Round a float count up to a whole number of 64-byte cache lines so
/// adjacent arena allocations never share a line (false-sharing hygiene
/// for multi-session scoring; see the header).
std::size_t pad_to_line(std::size_t floats) { return (floats + 15) & ~std::size_t{15}; }

}  // namespace

void InferenceContext::bind(const Sequential& model, const Tensor3& input_shape,
                            std::int32_t max_batch) {
  max_batch = std::max(max_batch, 1);
  if (model_ == &model && capacity_ >= max_batch && input_c_ == input_shape.channels() &&
      input_h_ == input_shape.height() && input_w_ == input_shape.width() &&
      (!train_ || !grads_.empty())) {
    return;
  }
  model_ = &model;
  capacity_ = max_batch;
  input_c_ = input_shape.channels();
  input_h_ = input_shape.height();
  input_w_ = input_shape.width();

  acts_.clear();
  grads_.clear();
  acts_.reserve(model.layer_count() + 1);
  Tensor3 shape(input_c_, input_h_, input_w_);
  acts_.emplace_back(capacity_, shape.channels(), shape.height(), shape.width());
  std::size_t scratch = 0;
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    const Layer& layer = model.layer(l);
    scratch = std::max(scratch, layer.infer_scratch_floats(shape));
    shape = layer.output_shape(shape);
    acts_.emplace_back(capacity_, shape.channels(), shape.height(), shape.width());
  }
  if (train_) {
    grads_.reserve(acts_.size());
    for (const Tensor4& a : acts_) {
      grads_.emplace_back(capacity_, a.channels(), a.height(), a.width());
    }
  }
  scratch_.assign(pad_to_line(scratch), 0.0F);

#ifndef NDEBUG
  // The arena contract: every activation block and the layer scratch sit
  // on 32-byte boundaries (common::aligned_vector). Kernels never require
  // it, but a silent regression here would cost packing performance.
  for (const Tensor4& a : acts_) {
    if (!a.data().empty()) dbg::assert_simd_aligned(a.data().data(), "InferenceContext activation");
  }
  if (!scratch_.empty()) dbg::assert_simd_aligned(scratch_.data(), "InferenceContext scratch");
#endif
}

void InferenceContext::bind_train(const Sequential& model, const Tensor3& input_shape,
                                  std::int32_t max_batch) {
  const bool was_train = train_;
  train_ = true;
  if (!was_train) {
    // Force a rebind so the gradient mirrors are allocated even when the
    // infer binding already matches.
    model_ = nullptr;
  }
  bind(model, input_shape, max_batch);
}

Tensor4& InferenceContext::input(std::int32_t n) {
  // Callers chunk to the bound capacity (PipelineSession::detect_batch);
  // staging more would silently reallocate every buffer.
  assert(bound() && n >= 0 && n <= capacity_);
  acts_.front().set_batch(n);
  return acts_.front();
}

Tensor4& InferenceContext::loss_grad() {
  assert(train_bound());
  grads_.back().set_batch(acts_.back().batch());
  return grads_.back();
}

}  // namespace dl2f::nn
