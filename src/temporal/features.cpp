#include "temporal/features.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace dl2f::temporal {

void pressure_rate_into(const monitor::FrameSample& s, float* dst, std::size_t n) {
  const float inv_cycles = 1.0F / static_cast<float>(window_cycles_of(s));
  const auto& first = monitor::frame_of(s.boc, kMeshDirections.front());
  assert(n == first.data().size());
  (void)first;
  std::fill(dst, dst + n, 0.0F);
  for (Direction d : kMeshDirections) {
    const auto& data = monitor::frame_of(s.boc, d).data();
    assert(data.size() == n);
    for (std::size_t i = 0; i < n; ++i) dst[i] += data[i];
  }
  for (std::size_t i = 0; i < n; ++i) dst[i] *= inv_cycles;
}

void sources_rate_into(const monitor::FrameSample& s, const MeshShape& mesh, float* dst,
                       std::size_t n) {
  const auto plane_cols = mesh.cols() - 1;
  assert(n == static_cast<std::size_t>(mesh.rows() * plane_cols));
  std::fill(dst, dst + n, 0.0F);
  if (s.ni_load.empty()) return;
  assert(s.ni_load.size() == static_cast<std::size_t>(mesh.node_count()));

  const float inv_cycles = 1.0F / static_cast<float>(window_cycles_of(s));
  for (NodeId id = 0; id < mesh.node_count(); ++id) {
    const Coord c = mesh.coord_of(id);
    const auto col = std::min(c.x, plane_cols - 1);
    float& cell = dst[static_cast<std::size_t>(c.y * plane_cols + col)];
    const float rate = kSourceGain * s.ni_load[static_cast<std::size_t>(id)] * inv_cycles;
    cell = std::max(cell, rate);
  }
}

std::vector<NodeId> source_suspects(monitor::SequenceView seq, const MeshShape& mesh,
                                    const SuspectConfig& cfg) {
  const auto n = static_cast<std::size_t>(mesh.node_count());
  std::vector<double> rate(n, 0.0);
  std::int32_t sampled = 0;
  for (const monitor::FrameSample* s : seq) {
    if (s == nullptr || s->ni_load.empty()) continue;
    assert(s->ni_load.size() == n);
    const double inv_cycles = 1.0 / static_cast<double>(window_cycles_of(*s));
    for (std::size_t i = 0; i < n; ++i) {
      rate[i] += static_cast<double>(s->ni_load[i]) * inv_cycles;
    }
    ++sampled;
  }
  if (sampled == 0) return {};
  for (double& r : rate) r /= sampled;

  // Trimmed population statistics: drop the hottest eighth (at least one
  // node) so the attackers themselves do not inflate the baseline they are
  // measured against, then gate on both sigma and an absolute margin.
  std::vector<double> sorted = rate;
  std::sort(sorted.begin(), sorted.end());
  const auto keep = n - std::max<std::size_t>(n / 8, 1);
  if (keep == 0) return {};
  double mean = 0.0;
  for (std::size_t i = 0; i < keep; ++i) mean += sorted[i];
  mean /= static_cast<double>(keep);
  double var = 0.0;
  for (std::size_t i = 0; i < keep; ++i) {
    const double d = sorted[i] - mean;
    var += d * d;
  }
  const double sigma = std::sqrt(var / static_cast<double>(keep));
  const double threshold = mean + std::max(cfg.sigma_gate * sigma, cfg.min_margin);

  std::vector<NodeId> suspects;
  for (std::size_t i = 0; i < n; ++i) {
    if (rate[i] > threshold) suspects.push_back(static_cast<NodeId>(i));
  }
  if (std::cmp_less(suspects.size(), cfg.min_sources)) return {};
  return suspects;
}

}  // namespace dl2f::temporal
