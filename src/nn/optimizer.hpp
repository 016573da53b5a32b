// Adam (Kingma & Ba) over the Param blocks of a Sequential model — the
// trainer of every CNN here; the tiny models converge in a few dozen
// epochs without tuning.
//
// Both the per-sample reference trainer and the batched data-parallel
// trainer feed the same contract: gradients are accumulated into
// Param::grad (the batched trainer reduces its per-slice GradientBuffers
// there in fixed order first), then step() applies one update and clears
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
