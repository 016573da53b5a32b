// The global performance monitor: samples VCO and BOC feature frames from
// every router input port (§5: "We designed a global performance monitor
// to collect the dataset").
#pragma once

#include <array>
#include <vector>

#include "common/frame.hpp"
#include "monitor/frame_geometry.hpp"
#include "noc/mesh.hpp"

namespace dl2f::monitor {

/// One frame per mesh direction, indexed by Direction (E, N, W, S).
using DirectionalFrames = std::array<Frame, kNumMeshDirections>;

[[nodiscard]] inline Frame& frame_of(DirectionalFrames& f, Direction d) {
  return f[static_cast<std::size_t>(d)];
}
[[nodiscard]] inline const Frame& frame_of(const DirectionalFrames& f, Direction d) {
  return f[static_cast<std::size_t>(d)];
}

class FeatureSampler {
 public:
  explicit FeatureSampler(const MeshShape& mesh) : geom_(mesh) {}

  [[nodiscard]] const FrameGeometry& geometry() const noexcept { return geom_; }

  /// Virtual-channel occupancy per input port, in [0,1], averaged over the
  /// current monitoring window (reset together with the BOC counters).
  /// VCO is float-natured and is used WITHOUT normalization (§4). The
  /// paper samples instantaneous occupancy from Garnet's 4-5 stage router
  /// pipeline; our single-cycle router drains VCs faster, so the window
  /// average restores the same congestion semantics (README, "Substitutions").
  [[nodiscard]] DirectionalFrames sample_vco(const noc::Mesh& mesh) const;

  /// As above, but when `reset` is true a new occupancy-averaging window
  /// starts after the read. Each feature owns its window lifecycle: BOC
  /// resets only the operation counters, VCO resets only the occupancy
  /// windows, so a monitoring round may sample the two features in either
  /// order (historically sample_boc reset both, so sampling BOC first
  /// silently collapsed the VCO average to its instantaneous fallback).
  [[nodiscard]] DirectionalFrames sample_vco(noc::Mesh& mesh, bool reset) const;

  /// Accumulated buffer operation counts (reads + writes) per input port
  /// since the last counter reset. Integer-natured; callers normalize
  /// before feeding the segmentation model (§4).
  /// When `reset` is true the counters restart for the next window (the
  /// VCO occupancy windows are left untouched — see sample_vco).
  [[nodiscard]] DirectionalFrames sample_boc(noc::Mesh& mesh, bool reset = true) const;

  /// Per-node network-interface injection demand accumulated since the
  /// last NI-counter reset, in flits, indexed by NodeId. The temporal
  /// detector's cross-source correlation features are built from this: it
  /// is the only monitor signal attributable to a *source* rather than to
  /// in-network pressure, which is what makes colluding low-rate floods
  /// visible. When `reset` is true the injection window restarts after the
  /// read (BOC / VCO windows untouched — each feature owns its lifecycle).
  [[nodiscard]] std::vector<float> sample_ni_load(noc::Mesh& mesh, bool reset = true) const;

 private:
  FrameGeometry geom_;
};

}  // namespace dl2f::monitor
