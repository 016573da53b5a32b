#include "traffic/parsec.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace dl2f::traffic {

std::string_view to_string(ParsecWorkload w) noexcept {
  switch (w) {
    case ParsecWorkload::Blackscholes: return "Blackscholes";
    case ParsecWorkload::Bodytrack: return "Bodytrack";
    case ParsecWorkload::X264: return "X264";
  }
  return "?";
}

ParsecParams parsec_params(ParsecWorkload w) noexcept {
  // Intensity ordering reflects PARSEC characterization studies:
  // blackscholes is embarrassingly parallel with tiny working sets;
  // bodytrack synchronizes per frame; x264 streams reference frames
  // between pipeline stages (most traffic of the three).
  switch (w) {
    case ParsecWorkload::Blackscholes:
      return ParsecParams{.base_rate = 0.003,
                          .burst_rate = 0.015,
                          .phase_len = 1000,
                          .burst_len = 100,
                          .hotspot_fraction = 0.7,
                          .neighbor_fraction = 0.1};
    case ParsecWorkload::Bodytrack:
      return ParsecParams{.base_rate = 0.006,
                          .burst_rate = 0.025,
                          .phase_len = 700,
                          .burst_len = 150,
                          .hotspot_fraction = 0.5,
                          .neighbor_fraction = 0.3};
    case ParsecWorkload::X264:
      return ParsecParams{.base_rate = 0.01,
                          .burst_rate = 0.035,
                          .phase_len = 500,
                          .burst_len = 200,
                          .hotspot_fraction = 0.4,
                          .neighbor_fraction = 0.4};
  }
  return ParsecParams{};
}

ParsecTraffic::ParsecTraffic(ParsecWorkload workload, const MeshShape& shape, std::uint64_t seed)
    : ParsecTraffic(shape, parsec_params(workload), seed) {}

ParsecTraffic::ParsecTraffic(const MeshShape& shape, const ParsecParams& params,
                             std::uint64_t seed)
    : params_(params), base_rate_(params.base_rate), burst_rate_(params.burst_rate), rng_(seed) {
  // Memory controllers at the four corners.
  controllers_ = {
      shape.id_of(Coord{0, 0}),
      shape.id_of(Coord{shape.cols() - 1, 0}),
      shape.id_of(Coord{0, shape.rows() - 1}),
      shape.id_of(Coord{shape.cols() - 1, shape.rows() - 1}),
  };
  std::sort(controllers_.begin(), controllers_.end());
  controllers_.erase(std::unique(controllers_.begin(), controllers_.end()), controllers_.end());
}

bool ParsecTraffic::in_burst(std::int64_t cycle) const noexcept {
  const auto period = params_.phase_len + params_.burst_len;
  return cycle % period >= params_.phase_len;
}

NodeId ParsecTraffic::pick_destination(const MeshShape& shape, NodeId src) {
  const double roll = rng_.uniform();
  if (roll < params_.hotspot_fraction) {
    // Nearest memory controller 75% of the time, any controller otherwise
    // (interleaved pages).
    constexpr BernoulliP kNearest(0.75);
    if (rng_.bernoulli(kNearest)) {
      NodeId best = controllers_.front();
      std::int32_t best_d = std::numeric_limits<std::int32_t>::max();
      for (NodeId mc : controllers_) {
        const auto d = shape.hop_distance(src, mc);
        if (d < best_d && mc != src) {
          best_d = d;
          best = mc;
        }
      }
      return best;
    }
    return controllers_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(controllers_.size()) - 1))];
  }
  if (roll < params_.hotspot_fraction + params_.neighbor_fraction) {
    const Coord c = shape.coord_of(src);
    return shape.id_of(Coord{(c.x + 1) % shape.cols(), c.y});
  }
  const auto n = shape.node_count();
  auto dst = static_cast<NodeId>(rng_.uniform_int(0, n - 2));
  if (dst >= src) ++dst;
  return dst;
}

void ParsecTraffic::tick(noc::Mesh& mesh) {
  const BernoulliP rate = in_burst(mesh.now()) ? burst_rate_ : base_rate_;
  const auto n = mesh.shape().node_count();
  for (NodeId src = 0; src < n; ++src) {
    if (!rng_.bernoulli(rate)) continue;
    const NodeId dst = pick_destination(mesh.shape(), src);
    if (dst != src) mesh.inject(src, dst);
  }
}

}  // namespace dl2f::traffic
