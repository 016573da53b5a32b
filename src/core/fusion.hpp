// Stage iii, part 1: Multi-Frame Fusion (MFF, Algorithm 1).
//
// Each binarized directional segmentation frame is lifted back into node
// space (the zero-padding step of Algorithm 1: a directional R x (R-1)
// frame misses one row or column of routers, which re-appears as zeros),
// then the per-direction node frames are summed. Any node marked in at
// least one direction is a victim: a routing-path victim (RPV) or the
// target victim itself.
#pragma once

#include <vector>

#include "common/frame.hpp"
#include "monitor/sampler.hpp"

namespace dl2f::core {

struct FusionResult {
  /// Node-space R x R accumulation frame; entry (y, x) counts how many
  /// directional frames flagged the input ports of router (x, y).
  Frame mff;
  /// Node ids with mff >= 1, ascending — the localized victims.
  std::vector<NodeId> victims;
};

/// Fuse binarized directional segmentations into victims.
/// `binarize_threshold` re-binarizes defensively in case callers pass soft
/// segmentation maps.
[[nodiscard]] FusionResult multi_frame_fusion(const monitor::FrameGeometry& geom,
                                              const monitor::DirectionalFrames& segmentation,
                                              float binarize_threshold = 0.5F);

/// Lift one binarized directional frame into an R x R node-space frame
/// (the Binarization + Zero_Pad step of Algorithm 1 for direction `d`).
[[nodiscard]] Frame lift_to_node_space(const monitor::FrameGeometry& geom, Direction d,
                                       const Frame& seg_binary);

}  // namespace dl2f::core
