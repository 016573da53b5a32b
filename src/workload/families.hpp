// The three request/reply benign workload families registered on the
// campaign's workload axis alongside the STP and PARSEC benchmarks, and
// the two arrival processes they draw requests from:
//
//   trace-replay   closed-loop phase-structured bursts (BurstyTraceSource):
//                  clients issue requests to corner memory tiles under an
//                  outstanding window, bursts alternating with quiet phases.
//   openloop-burst open-loop Markov on/off trains (MarkovOnOffTraceSource):
//                  on-phase clients push on the pure arrival clock, so
//                  overload lands in the NI source queues instead of being
//                  absorbed by a window.
//   memhog         closed-loop constant high-rate memory stream with large
//                  replies — sustained near-saturation pressure on the
//                  corner memory tiles, the benign pattern most easily
//                  mistaken for a hotspot flood.
//
// Rates are tuned benign: aggregate reply demand stays at or below each
// memory tile's 1 flit/cycle NI bandwidth (memhog sits deliberately at the
// edge), so the detector's distinguishing signal remains flooding pressure.
// Each source is seeded by the campaign convention and draws the same
// requests for the same cycles, so a family's traffic is reproducible.
#pragma once

#include <array>
#include <memory>
#include <string_view>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "workload/endpoint.hpp"

namespace dl2f::workload {

/// Phase-structured bursty arrivals: client nodes alternate between a quiet
/// phase and a burst phase, each cycle issuing a Bernoulli request toward
/// an rng-chosen server. quiet_rate == burst_rate degenerates to a
/// constant-rate memory stream (the "memhog" shape).
class BurstyTraceSource final : public RequestSource {
 public:
  struct Config {
    MeshShape mesh = MeshShape::square(8);
    std::vector<NodeId> servers;     ///< request destinations (memory tiles)
    noc::Cycle quiet_cycles = 600;   ///< length of the quiet phase
    noc::Cycle burst_cycles = 200;   ///< length of the burst phase
    double quiet_rate = 0.004;       ///< per-client per-cycle request probability
    double burst_rate = 0.02;
  };

  BurstyTraceSource(const Config& cfg, std::uint64_t seed);

  void draw(noc::Cycle now, std::vector<Request>& out) override;

 private:
  Config cfg_;
  BernoulliP quiet_rate_;  ///< cfg_.quiet_rate's trial
  BernoulliP burst_rate_;  ///< cfg_.burst_rate's trial
  std::vector<NodeId> clients_;  ///< all non-server nodes, ascending
  Rng rng_;
};

/// Per-node two-state Markov on/off process: each client flips off->on with
/// p_on and on->off with p_off per cycle, and while on issues Bernoulli
/// requests at on_rate — long silences punctuated by dense request
/// trains, the canonical open-loop overload shape.
class MarkovOnOffTraceSource final : public RequestSource {
 public:
  struct Config {
    MeshShape mesh = MeshShape::square(8);
    std::vector<NodeId> servers;
    double p_on = 0.002;   ///< off -> on transition probability per cycle
    double p_off = 0.010;  ///< on -> off transition probability per cycle
    double on_rate = 0.08;
  };

  MarkovOnOffTraceSource(const Config& cfg, std::uint64_t seed);

  void draw(noc::Cycle now, std::vector<Request>& out) override;

 private:
  Config cfg_;
  BernoulliP p_on_, p_off_, on_rate_;  ///< cfg_'s three trials
  std::vector<NodeId> clients_;
  std::vector<char> on_;  ///< per-client on/off state, indexed like clients_
  Rng rng_;
};

/// The corner nodes of the mesh, ascending — the conventional memory-tile
/// placement shared with monitor::ParsecTraffic's hotspot corners.
[[nodiscard]] std::vector<NodeId> corner_servers(const MeshShape& mesh);

enum class TraceWorkloadKind : std::uint8_t { TraceReplay = 0, OpenLoopBurst = 1, MemHog = 2 };

inline constexpr std::array<TraceWorkloadKind, 3> kAllTraceWorkloads{
    TraceWorkloadKind::TraceReplay, TraceWorkloadKind::OpenLoopBurst, TraceWorkloadKind::MemHog};

[[nodiscard]] constexpr std::string_view to_string(TraceWorkloadKind k) noexcept {
  switch (k) {
    case TraceWorkloadKind::TraceReplay: return "trace-replay";
    case TraceWorkloadKind::OpenLoopBurst: return "openloop-burst";
    case TraceWorkloadKind::MemHog: return "memhog";
  }
  return "?";
}

/// Build the generator for one family: a RequestReplyWorkload over the
/// family's arrival process, servers at the mesh corners, deterministically
/// seeded (same convention as every other benign generator).
[[nodiscard]] std::unique_ptr<RequestReplyWorkload> make_trace_workload(TraceWorkloadKind kind,
                                                                        const MeshShape& mesh,
                                                                        std::uint64_t seed);

}  // namespace dl2f::workload
