#include "nn/model.hpp"

#include <algorithm>
#include <cstdint>
#include "nn/inference.hpp"
#include <fstream>
#include <istream>
#include <ostream>

namespace dl2f::nn {

namespace {
constexpr std::uint32_t kMagic = 0x444C3246;  // "DL2F"
}

Tensor3 Sequential::forward(const Tensor3& input) {
  Tensor3 t = input;
  for (auto& l : layers_) t = l->forward(t);
  return t;
}

Tensor3 Sequential::backward(const Tensor3& grad_output) {
  Tensor3 g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

const Tensor4& Sequential::infer_batch(InferenceContext& ctx) const {
  assert(ctx.model() == this);
  const std::int32_t n = ctx.acts_.front().batch();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    ctx.acts_[l + 1].set_batch(n);
    layers_[l]->infer_batch(ctx.acts_[l], ctx.acts_[l + 1], ctx.scratch_.data());
  }
  return ctx.acts_.back();
}

void Sequential::backward_batch(InferenceContext& ctx, GradientBuffer& grads) const {
  assert(ctx.model() == this && ctx.train_bound());
  const std::int32_t n = ctx.acts_.front().batch();
  assert(ctx.grads_.back().batch() == n);
  // Per-layer views into the flat gradient-block list (params() order).
  std::size_t block = grads.blocks.size();
  for (std::size_t l = layers_.size(); l-- > 0;) {
    Layer& layer = *layers_[l];
    const std::size_t nparams = layer.num_params();
    assert(block >= nparams);
    block -= nparams;
    float* param_ptrs[2] = {nullptr, nullptr};
    assert(nparams <= 2);
    for (std::size_t j = 0; j < nparams; ++j) param_ptrs[j] = grads.blocks[block + j].data();
    ctx.grads_[l].set_batch(n);
    layer.backward_batch(ctx.grads_[l + 1], ctx.acts_[l], ctx.acts_[l + 1], ctx.grads_[l],
                         std::span<float* const>(param_ptrs, nparams), ctx.scratch_.data(),
                         /*need_input_grad=*/l > 0);
  }
  assert(block == 0);
}

void GradientBuffer::bind(const Sequential& model) {
  const auto params = model.params();
  blocks.clear();
  blocks.reserve(params.size());
  for (const Param* p : params) blocks.emplace_back(p->size(), 0.0F);
}

void GradientBuffer::zero() {
  for (auto& b : blocks) std::fill(b.begin(), b.end(), 0.0F);
}

void GradientBuffer::add(const GradientBuffer& other) {
  assert(blocks.size() == other.blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    assert(blocks[i].size() == other.blocks[i].size());
    float* __restrict dst = blocks[i].data();
    const float* __restrict src = other.blocks[i].data();
    for (std::size_t j = 0; j < blocks[i].size(); ++j) dst[j] += src[j];
  }
}

void GradientBuffer::store(Sequential& model) const {
  const auto params = model.params();
  assert(params.size() == blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    assert(params[i]->grad.size() == blocks[i].size());
    std::copy(blocks[i].begin(), blocks[i].end(), params[i]->grad.begin());
  }
}

void Sequential::init_weights(Rng& rng) {
  for (auto& l : layers_) l->init_weights(rng);
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& l : layers_) {
    for (auto* p : l->params()) out.push_back(p);
  }
  return out;
}

std::vector<const Param*> Sequential::params() const {
  std::vector<const Param*> out;
  for (const auto& l : layers_) {
    for (const auto* p : l->params()) out.push_back(p);
  }
  return out;
}

std::size_t Sequential::param_count() const {
  std::size_t n = 0;
  for (const auto* p : params()) n += p->size();
  return n;
}

bool Sequential::save(std::ostream& os) const {
  const auto blocks = params();
  const std::uint32_t magic = kMagic;
  const auto count = static_cast<std::uint32_t>(blocks.size());
  os.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  os.write(reinterpret_cast<const char*>(&count), sizeof count);
  for (auto* p : blocks) {
    const auto n = static_cast<std::uint64_t>(p->size());
    os.write(reinterpret_cast<const char*>(&n), sizeof n);
    os.write(reinterpret_cast<const char*>(p->value.data()),
             static_cast<std::streamsize>(n * sizeof(float)));
  }
  return static_cast<bool>(os);
}

bool Sequential::load(std::istream& is) {
  // Stage every block; commit only once all are whole and the stream is
  // exhausted, so a rejected blob leaves the parameters untouched.
  std::uint32_t magic = 0, count = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof magic);
  is.read(reinterpret_cast<char*>(&count), sizeof count);
  const auto blocks = params();
  if (!is || magic != kMagic || count != blocks.size()) return false;
  std::vector<std::vector<float>> staged(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    std::uint64_t n = 0;
    is.read(reinterpret_cast<char*>(&n), sizeof n);
    if (!is || n != blocks[b]->size()) return false;
    staged[b].resize(n);
    is.read(reinterpret_cast<char*>(staged[b].data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    if (!is) return false;
  }
  if (is.peek() != std::istream::traits_type::eof()) return false;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    std::copy(staged[b].begin(), staged[b].end(), blocks[b]->value.begin());
  }
  return true;
}

bool Sequential::save_file(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  return f && save(f);
}

bool Sequential::load_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return f && load(f);
}

}  // namespace dl2f::nn
