// Versioned text trace format + deterministic trace sources.
//
// A trace is a time-ordered list of request/reply events driving the
// request-reply endpoints in src/workload/endpoint.hpp (the netsim
// cpu.cpp/memory.cpp idiom: CPU tiles issue REQ packets toward memory
// tiles, which answer with REPLY packets after a service latency).
//
// Text format `dl2f-trace v1` (see traces/README note in the repo README):
//
//     dl2f-trace v1
//     # comment lines and blank lines are ignored
//     <cycle> <src> <dst> <REQ|REPLY> <size_flits>
//
// Records must be sorted by nondecreasing cycle; every malformed line is
// rejected with a line-numbered std::invalid_argument so a bad trace file
// fails loudly at load time, never silently mid-campaign.
//
// Sources come in two flavors behind one pull interface (TraceSource):
// file/vector-backed replay (optionally looped), and generator-backed
// synthesis (phase-structured bursts, per-node Markov on/off) seeded by
// the campaign convention so a synthesized trace is as reproducible as a
// committed file.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "noc/flit.hpp"

namespace dl2f::workload {

enum class TraceKind : std::uint8_t { Request = 0, Reply = 1 };

[[nodiscard]] constexpr std::string_view to_string(TraceKind k) noexcept {
  return k == TraceKind::Request ? "REQ" : "REPLY";
}

/// One trace event: at `cycle`, node `src` presents a `kind` packet of
/// `size_flits` flits destined for `dst`.
struct TraceRecord {
  noc::Cycle cycle = 0;
  NodeId src = 0;
  NodeId dst = 0;
  TraceKind kind = TraceKind::Request;
  std::int32_t size_flits = 1;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Header line every v1 trace file starts with.
inline constexpr std::string_view kTraceHeaderV1 = "dl2f-trace v1";

/// Parse a v1 trace stream. Throws std::invalid_argument with the 1-based
/// line number on a missing/wrong header, short/overlong lines, non-numeric
/// fields, unknown kinds, negative/zero sizes, out-of-mesh node ids (when
/// `shape` is given) and cycle-order violations.
[[nodiscard]] std::vector<TraceRecord> parse_trace(std::istream& in,
                                                   const MeshShape* shape = nullptr);

/// Load a trace file from disk (wraps parse_trace; the thrown message is
/// prefixed with the path).
[[nodiscard]] std::vector<TraceRecord> load_trace(const std::string& path,
                                                  const MeshShape* shape = nullptr);

/// Write records back out in v1 format (round-trips through parse_trace).
void write_trace(std::ostream& out, const std::vector<TraceRecord>& records);

/// Pull interface every endpoint consumes: `next` fills `out` with the next
/// record in nondecreasing cycle order and returns false when exhausted
/// (generator-backed sources never exhaust).
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  virtual bool next(TraceRecord& out) = 0;
};

/// Replays a parsed record vector; with `loop_period > 0` the sequence
/// repeats forever, each pass shifted by pass * loop_period cycles
/// (loop_period must exceed the last record's cycle to keep order).
class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(std::vector<TraceRecord> records, noc::Cycle loop_period = 0);

  bool next(TraceRecord& out) override;

 private:
  std::vector<TraceRecord> records_;
  std::size_t pos_ = 0;
  noc::Cycle loop_period_;
  std::int64_t pass_ = 0;
};

/// Shared machinery for synthesized sources: generates records one cycle at
/// a time into a small buffer, so next() stays ahead of the consumer by at
/// most one cycle's worth of events regardless of how far the simulation
/// runs. Subclasses emit records for cycle `c` in ascending src order,
/// keeping the stream deterministic.
class GeneratedTraceSource : public TraceSource {
 public:
  bool next(TraceRecord& out) final;

 protected:
  /// Append this cycle's records (ascending src) to `out`.
  virtual void generate_cycle(noc::Cycle cycle, std::vector<TraceRecord>& out) = 0;

 private:
  std::deque<TraceRecord> buffer_;
  std::vector<TraceRecord> scratch_;
  noc::Cycle next_cycle_ = 0;
};

/// Phase-structured bursty arrivals: client nodes alternate between a quiet
/// phase and a burst phase, issuing Bernoulli REQ records toward a
/// rng-chosen server each cycle. quiet_rate == burst_rate degenerates to a
/// constant-rate memory stream (the "memhog" shape).
class BurstyTraceSource final : public GeneratedTraceSource {
 public:
  struct Config {
    MeshShape mesh = MeshShape::square(8);
    std::vector<NodeId> servers;     ///< request destinations (memory tiles)
    noc::Cycle quiet_cycles = 600;   ///< length of the quiet phase
    noc::Cycle burst_cycles = 200;   ///< length of the burst phase
    double quiet_rate = 0.004;       ///< per-client per-cycle REQ probability
    double burst_rate = 0.02;
    std::int32_t request_flits = 1;
  };

  BurstyTraceSource(const Config& cfg, std::uint64_t seed);

 protected:
  void generate_cycle(noc::Cycle cycle, std::vector<TraceRecord>& out) override;

 private:
  Config cfg_;
  BernoulliP quiet_rate_;  ///< cfg_.quiet_rate's trial
  BernoulliP burst_rate_;  ///< cfg_.burst_rate's trial
  std::vector<NodeId> clients_;  ///< all non-server nodes, ascending
  Rng rng_;
};

/// Per-node two-state Markov on/off process: each client flips off->on with
/// p_on and on->off with p_off per cycle, and while on issues Bernoulli
/// REQ records at on_rate — long silences punctuated by dense request
/// trains, the canonical open-loop overload shape.
class MarkovOnOffTraceSource final : public GeneratedTraceSource {
 public:
  struct Config {
    MeshShape mesh = MeshShape::square(8);
    std::vector<NodeId> servers;
    double p_on = 0.002;   ///< off -> on transition probability per cycle
    double p_off = 0.010;  ///< on -> off transition probability per cycle
    double on_rate = 0.08;
    std::int32_t request_flits = 1;
  };

  MarkovOnOffTraceSource(const Config& cfg, std::uint64_t seed);

 protected:
  void generate_cycle(noc::Cycle cycle, std::vector<TraceRecord>& out) override;

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

/// All nodes not in `servers`, ascending.
[[nodiscard]] std::vector<NodeId> client_nodes(const MeshShape& mesh,
                                               const std::vector<NodeId>& servers);

}  // namespace dl2f::workload
