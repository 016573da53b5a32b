#include "core/fusion.hpp"

namespace dl2f::core {

Frame lift_to_node_space(const monitor::FrameGeometry& geom, Direction d,
                         const Frame& seg_binary) {
  const auto& mesh = geom.mesh();
  Frame node(mesh.rows(), mesh.cols());
  for (std::int32_t r = 0; r < seg_binary.rows(); ++r) {
    for (std::int32_t c = 0; c < seg_binary.cols(); ++c) {
      if (seg_binary.at(r, c) <= 0.0F) continue;
      const Coord coord = geom.to_coord(d, monitor::FramePos{r, c});
      node.at(coord.y, coord.x) = 1.0F;
    }
  }
  return node;
}

FusionResult multi_frame_fusion(const monitor::FrameGeometry& geom,
                                const monitor::DirectionalFrames& segmentation,
                                float binarize_threshold) {
  const auto& mesh = geom.mesh();
  FusionResult result;
  result.mff = Frame(mesh.rows(), mesh.cols());

  for (Direction d : kMeshDirections) {
    const Frame bin = monitor::frame_of(segmentation, d).binarized(binarize_threshold);
    if (bin.sum() <= 0.0F) continue;
    result.mff += lift_to_node_space(geom, d, bin);
  }

  for (std::int32_t y = 0; y < result.mff.rows(); ++y) {
    for (std::int32_t x = 0; x < result.mff.cols(); ++x) {
      if (result.mff.at(y, x) >= 1.0F) {
        result.victims.push_back(mesh.id_of(Coord{x, y}));
      }
    }
  }
  return result;
}

}  // namespace dl2f::core
