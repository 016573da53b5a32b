// Request/reply endpoint pairs driven by a RequestSource.
//
// One RequestReplyWorkload models BOTH sides of the netsim cpu.cpp /
// memory.cpp split: the CPU-side endpoints issue single-flit REQ packets
// as their RequestSource draws them (closed-loop against a per-client
// outstanding-request window, or open-loop on the pure arrival clock), and
// the memory-side endpoints turn each delivered request into a REPLY
// packet after a fixed service latency. It is a traffic::TrafficGenerator
// (ticked before the mesh advances) and a noc::PacketDeliveryListener
// (told about every tail-flit ejection), so request->reply causality flows
// through real delivered packets — not through a schedule computed outside
// the network.
//
// Backpressure is honored on both sides: a closed-loop client stops
// issuing when its outstanding window is full OR its NI source queue is
// deep, and a memory endpoint defers ready replies while its own NI queue
// is backed up. Because replies route through the ordinary injection path,
// quarantining an innocent client (false fence) drops its requests at the
// NI, its outstanding window never drains, and every dependent stalls —
// the visible cost a serving SLO must price in.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/geometry.hpp"
#include "noc/mesh.hpp"
#include "traffic/generator.hpp"

namespace dl2f::workload {

/// One arrival: `client` asks memory tile `server` for data.
struct Request {
  NodeId client = 0;
  NodeId server = 0;
};

/// An arrival process. The endpoint calls draw(now, out) once per ticked
/// cycle, in cycle order; a source appends that cycle's requests to `out`
/// sorted by client, every one addressed to one of the endpoint's servers.
/// A source owns its randomness, so the stream it yields depends only on
/// its seed and the cycles it is asked for.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  virtual void draw(noc::Cycle now, std::vector<Request>& out) = 0;
};

/// NI backpressure threshold: an endpoint stops injecting while its
/// source queue holds this many packets.
inline constexpr std::size_t kMaxNiQueue = 4;

struct RequestReplyConfig {
  bool open_loop = false;          ///< issue on the arrival clock, no window
  std::int32_t window = 8;         ///< max outstanding requests per client (closed-loop)
  noc::Cycle service_latency = 24; ///< delivered request -> reply injection delay
  std::int32_t reply_flits = 5;    ///< reply packet size (cache-line-like payload)
};

/// Aggregate counters; the serving bench snapshots this per window and
/// diffs. All integers except the latency sum, so snapshots are exact.
struct WorkloadStats {
  std::int64_t requests_issued = 0;     ///< REQ packets handed to an NI
  std::int64_t requests_dropped = 0;    ///< REQ packets dropped at a fenced NI
  std::int64_t requests_delivered = 0;  ///< REQ tails ejected at a server
  std::int64_t replies_issued = 0;      ///< REPLY packets handed to an NI
  std::int64_t replies_dropped = 0;     ///< REPLY packets dropped at a fenced NI
  std::int64_t replies_completed = 0;   ///< REPLY tails ejected back at the client
  std::int64_t issue_stall_cycles = 0;  ///< client-cycles blocked by window/backpressure
  std::int64_t reply_stall_cycles = 0;  ///< server-cycles a ready reply waited on backpressure
  double reply_latency_sum = 0.0;       ///< sum over completed round trips (cycles)
  noc::Cycle reply_latency_max = 0;
};

class RequestReplyWorkload final : public traffic::TrafficGenerator,
                                   public noc::PacketDeliveryListener {
 public:
  /// `servers` are the memory tiles (kept sorted and deduplicated); every
  /// request `source` draws must target one of them.
  RequestReplyWorkload(const MeshShape& mesh, std::unique_ptr<RequestSource> source,
                       std::vector<NodeId> servers, const RequestReplyConfig& cfg);
  ~RequestReplyWorkload() override;

  RequestReplyWorkload(const RequestReplyWorkload&) = delete;
  RequestReplyWorkload& operator=(const RequestReplyWorkload&) = delete;

  void tick(noc::Mesh& mesh) override;
  void on_packet_delivered(const noc::Flit& tail, noc::Cycle now) override;

  [[nodiscard]] const WorkloadStats& stats() const noexcept { return stats_; }

  /// 1-cycle-bucket round-trip latency histogram (overflow in last bucket);
  /// the serving bench diffs snapshots of this for per-phase percentiles.
  [[nodiscard]] const std::vector<std::int64_t>& reply_latency_histogram() const noexcept {
    return latency_hist_;
  }

 private:
  /// A delivered request waiting out its service latency at a server.
  struct PendingReply {
    noc::Cycle ready;        ///< earliest injection cycle
    NodeId client;           ///< where the reply goes
    noc::Cycle issue_cycle;  ///< when the client issued the request
  };
  /// In-flight metadata keyed by PacketId (lookup/erase only — never
  /// iterated, so the unordered container does not threaten determinism).
  struct RequestMeta {
    noc::Cycle issue_cycle;
  };
  struct ReplyMeta {
    NodeId client;
    noc::Cycle issue_cycle;
  };

  void serve_replies(noc::Mesh& mesh, noc::Cycle now);
  void issue_requests(noc::Mesh& mesh, noc::Cycle now);

  MeshShape mesh_shape_;
  std::unique_ptr<RequestSource> source_;
  std::vector<NodeId> servers_;  ///< ascending
  RequestReplyConfig cfg_;
  WorkloadStats stats_;

  std::vector<Request> drawn_;  ///< this cycle's draw (reused)
  /// Drawn-but-unissued requests per client, as server ids (head-of-line
  /// blocking is per client, never across clients).
  std::vector<std::deque<NodeId>> pending_;
  std::vector<std::int32_t> outstanding_;
  std::vector<std::deque<PendingReply>> reply_queues_;  ///< per server, FIFO by ready cycle

  std::unordered_map<noc::PacketId, RequestMeta> request_meta_;
  std::unordered_map<noc::PacketId, ReplyMeta> reply_meta_;

  static constexpr std::size_t kLatencyBuckets = 4096;
  std::vector<std::int64_t> latency_hist_;

  noc::Mesh* registered_mesh_ = nullptr;
};

}  // namespace dl2f::workload
