// Phase-based synthetic models of the three PARSEC workloads the paper
// runs (blackscholes, bodytrack, x264).
//
// Substitution (README, "Substitutions"): the paper runs real PARSEC
// binaries under Gem5 full-system and observes their *traffic* at the NoC.
// What matters for DL2Fence is the traffic character during the Region of
// Interest: computation-dominated phases with low mean injection, periodic
// bursts to shared resources (memory controllers / cache hubs), and some
// producer-consumer neighbor traffic. Each model below is a small phase
// machine over those three components, with per-workload parameters chosen
// to reflect the published traffic intensity ordering
// (blackscholes < bodytrack < x264).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "traffic/generator.hpp"

namespace dl2f::traffic {

enum class ParsecWorkload : std::uint8_t { Blackscholes, Bodytrack, X264 };

inline constexpr std::array<ParsecWorkload, 3> kAllParsecWorkloads{
    ParsecWorkload::Blackscholes, ParsecWorkload::Bodytrack, ParsecWorkload::X264};

[[nodiscard]] std::string_view to_string(ParsecWorkload w) noexcept;

/// Tuning knobs of the phase machine; defaults come from per-workload
/// presets (see parsec_params()).
struct ParsecParams {
  double base_rate = 0.005;      ///< packets/node/cycle during compute phases
  double burst_rate = 0.02;      ///< packets/node/cycle during communication bursts
  std::int64_t phase_len = 800;  ///< cycles of compute between bursts
  std::int64_t burst_len = 150;  ///< cycles per communication burst
  double hotspot_fraction = 0.6; ///< share of packets aimed at memory controllers
  double neighbor_fraction = 0.2;///< share aimed at the +x neighbor (pipelines)
  // remaining share goes to uniform-random destinations
};

[[nodiscard]] ParsecParams parsec_params(ParsecWorkload w) noexcept;

/// The PARSEC-like benign traffic generator.
///
/// Memory controllers sit at the four mesh corners (a common MPSoC
/// floorplan); hotspot packets pick the nearest controller with high
/// probability, mimicking locality-aware memory interleaving.
class ParsecTraffic final : public TrafficGenerator {
 public:
  ParsecTraffic(ParsecWorkload workload, const MeshShape& shape, std::uint64_t seed);
  ParsecTraffic(const MeshShape& shape, const ParsecParams& params, std::uint64_t seed);

  void tick(noc::Mesh& mesh) override;

  /// True when `cycle` falls inside a communication burst.
  [[nodiscard]] bool in_burst(std::int64_t cycle) const noexcept;

 private:
  [[nodiscard]] NodeId pick_destination(const MeshShape& shape, NodeId src);

  ParsecParams params_;
  BernoulliP base_rate_;   ///< params_.base_rate's trial
  BernoulliP burst_rate_;  ///< params_.burst_rate's trial
  std::vector<NodeId> controllers_;
  Rng rng_;
};

}  // namespace dl2f::traffic
