// Adam (Kingma & Ba) over the Param blocks of a Sequential model — the
// trainer of every CNN here; the tiny models converge in a few dozen
// epochs without tuning.
//
// nn::train, the one trainer, keeps one contract with it: each batched,
// data-parallel minibatch reduces its per-slice GradientBuffers into
// Param::grad in fixed order, then step() applies one update and clears
// the gradients. The optimizer itself is oblivious to batching and
// thread count — determinism is settled before it runs.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace dl2f::nn {

class Adam {
 public:
  Adam(std::vector<Param*> params, float lr);

  /// Apply one update from the accumulated gradients, then clear them.
  void step();

 private:
  std::vector<Param*> params_;
  float lr_;
  std::int64_t t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace dl2f::nn
