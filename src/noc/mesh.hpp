// The 2-D Mesh-XY NoC fabric: routers, 1-cycle links, credit wiring and
// per-node network interfaces (source queue + flitization + ejection).
//
// This is the repo's substitute for Gem5/Garnet (README, "Substitutions"):
// the structural state Garnet exposes (virtual-channel occupancy, buffer
// read/write counters, queueing and network latency) is produced by the
// same mechanisms here, so DL2Fence's feature frames keep their semantics.
// ---------------------------------------------------------------------------
// Hot-path storage and scheduling invariants (ISSUE 3 datapath, ISSUE 9
// sharded stepping)
//
// Routers live by value in one contiguous vector — stepping walks flat
// memory, never pointer-chases. Each virtual channel's flit slots live in
// its router's slot arena (see router.hpp), so buffering a flit never
// touches the heap.
//
// SHARD PARTITION. The router vector is split into MeshConfig::shards
// contiguous ROW BANDS (row-major ids make a band one contiguous id
// range; the first rows%shards bands get one extra row). Under XY
// routing, East/West hops stay inside a band, so the only cross-shard
// traffic is the North/South hops at band boundaries — each shard
// exchanges flits and credits with at most its two neighbors.
//
// LINK TABLE. The constructor builds each router with its band's id range;
// the router keeps, per mesh direction, the neighbor's id and the staging
// list (LinkStage::kOwn, kPrev or kNext) that the neighbor's band applies.
//
// STEP PHASES. Every cycle runs:
//   1. NI + route phase, per shard (parallelizable): each shard serializes
//      its source queues and steps its active routers in ascending id
//      order. A router stages each winning flit and each returned credit
//      ONCE, already addressed to the receiving router and port, into its
//      shard's list for the receiver's band — own band, previous band or
//      next band. Ejections are staged per shard in ascending router order.
//   2. BARRIER: common::WorkerPool::barrier(), which returns at once when
//      step_threads == 1 (the calling thread then runs every shard).
//   3. Apply phase, per shard (parallelizable): each shard applies the
//      arrivals addressed TO it — previous shard's next-band list, own
//      list, next shard's previous-band list, i.e. ascending source-router
//      order — then credits in the same list order. Only the owning shard
//      ever writes its routers, so phases 1 and 3 are data-race-free by
//      partition.
//   4. Serial coordinator phase: ejection statistics and the delivery
//      listener run on the calling thread, shards in ascending order —
//      so the order-sensitive floating-point latency accumulation and
//      listener callbacks happen in ascending router-id order, BYTE-
//      IDENTICAL to the single-shard, single-thread sweep at any shard
//      or thread count. (Within phase 3, interleaving across staging
//      lists is state-equivalent: at most one flit per (router, port,
//      VC) arrives per cycle and credit increments commute.)
//
// Two activity bitsets per shard keep idle structure off the per-cycle
// path. Bit i of a shard's set stands for router / NI `first + i`, so each
// word belongs to one shard and only that shard's worker writes it. Sweeps
// walk the set lowest bit first, i.e. in ascending id order, so the step,
// ejection and latency-accumulation order is the same at any occupancy.
//  * router bits — a router ENTERS when a flit is delivered to it (NI
//    injection or link arrival) and LEAVES when its own step leaves it
//    with `buffered_flits() == 0` (an arrival later in the same cycle
//    re-enters it). A router with an Active-but-empty VC (wormhole body
//    flits still upstream) has buffered == 0 and correctly leaves: only a
//    new flit arrival — which re-activates it — can give it work. Credit
//    returns never activate: credits matter only to routers that hold
//    flits, which are set.
//    Invariant between steps: buffered_flits(r) > 0  <=>  r's bit is set.
//  * source bits — a node ENTERS when inject() lands a packet in its
//    source queue and LEAVES when the NI sweep finds its queue empty
//    (after serializing the last flit, or after a quarantine flush).
//    Invariant between steps: !source_queue_empty(n)  =>  n's bit is set.
//  A shard whose sets are empty costs one scan of its words: quiescent
//  regions of a large mesh are skipped wholesale (the activity-driven fast
//  path).
//
// Mesh::step performs ZERO steady-state heap allocations: every arena —
// per-shard staging lists included — is reserved at its physical per-cycle
// maximum in the constructor (tests/noc_ring_test.cpp counts allocations,
// sharded configurations included).
// ---------------------------------------------------------------------------
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/geometry.hpp"
#include "noc/flit.hpp"
#include "noc/router.hpp"
#include "noc/stats.hpp"

namespace dl2f::common {
class WorkerPool;  // common/worker_pool.hpp
}  // namespace dl2f::common

namespace dl2f::noc {

struct MeshConfig {
  MeshShape shape = MeshShape::square(8);
  RouterConfig router;
  std::int32_t packet_length_flits = 5;  ///< default packet size (1 head + 3 body + 1 tail), >= 1
  /// Row-band shards for Mesh::step. 0 = auto (rows/8, clamped to [1, 8]);
  /// explicit values are clamped to [1, rows]. Results are bitwise
  /// identical at ANY shard count — sharding only re-groups the sweep.
  std::int32_t shards = 0;
  /// Worker threads stepping the shards. 0 = auto (min(shards, hardware
  /// concurrency)); explicit values are clamped to [1, shards]; at 1 the
  /// caller steps every shard. Results are bitwise identical at ANY
  /// thread count — see the phase contract above.
  std::int32_t step_threads = 0;
};

/// Observer of packet deliveries: invoked once per delivered packet (its
/// tail flit) as the ejection is recorded, in ascending router-id order
/// within a cycle — the same deterministic order the latency stats
/// accumulate in (the serial coordinator phase, regardless of shard or
/// thread count). The request/reply workload endpoints (src/workload/)
/// register one so delivered requests can be turned into replies after a
/// service latency; packets the listener does not recognize (other
/// generators' traffic, flooding overlays) are simply not its to handle.
class PacketDeliveryListener {
 public:
  virtual ~PacketDeliveryListener() = default;
  virtual void on_packet_delivered(const Flit& tail, Cycle now) = 0;
};

class Mesh {
 public:
  /// Throws std::invalid_argument when cfg.packet_length_flits < 1, when
  /// the mesh has more than 32767 nodes, or when cfg.router is out of
  /// range (see Router).
  explicit Mesh(const MeshConfig& cfg);
  ~Mesh();
  Mesh(Mesh&&) noexcept;
  Mesh& operator=(Mesh&&) noexcept;
  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  [[nodiscard]] const MeshShape& shape() const noexcept { return cfg_.shape; }
  [[nodiscard]] Cycle now() const noexcept { return now_; }

  /// Resolved row-band shard count (cfg.shards with auto/clamping applied).
  [[nodiscard]] std::int32_t shard_count() const noexcept {
    return static_cast<std::int32_t>(shards_.size());
  }
  /// Resolved stepping thread count, the calling thread included.
  [[nodiscard]] std::int32_t step_thread_count() const noexcept;

  [[nodiscard]] Router& router(NodeId id) { return routers_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const Router& router(NodeId id) const {
    return routers_[static_cast<std::size_t>(id)];
  }

  /// Queue a packet at `src`'s network interface. Uses the configured
  /// default length when `length_flits <= 0`. Returns -1 (and drops the
  /// packet) when `src` is quarantined.
  PacketId inject(NodeId src, NodeId dst, std::int32_t length_flits = 0, bool malicious = false);

  /// Mitigation hook: a quarantined node's network interface drops every
  /// packet it is asked to inject, and fencing also flushes the node's
  /// queued source backlog (except a packet already mid-serialization,
  /// which must finish to release its virtual channels) — the runtime
  /// defense fences a suspected attacker's injection port. In-flight
  /// traffic is unaffected, so the network drains the flood instead of
  /// freezing it. Throws std::invalid_argument, changing nothing, when
  /// `id` is outside the mesh.
  void set_quarantined(NodeId id, bool quarantined);
  [[nodiscard]] bool quarantined(NodeId id) const {
    assert(cfg_.shape.valid(id));
    return quarantined_[static_cast<std::size_t>(id)] != 0;
  }
  /// Currently fenced nodes, ascending.
  [[nodiscard]] std::vector<NodeId> quarantined_nodes() const;
  /// Packets dropped at quarantined injection ports so far.
  // lint-allow(DL008): test oracle — the golden tests fold it into their stream digests
  [[nodiscard]] std::int64_t packets_dropped() const noexcept { return packets_dropped_; }

  /// Advance the whole network by one cycle.
  void step();

  /// All traffic, flooding packets included.
  [[nodiscard]] const LatencyStats& stats() const noexcept { return stats_; }
  [[nodiscard]] LatencyStats& stats() noexcept { return stats_; }
  /// Benign traffic only — the paper's Fig. 1 series measure how flooding
  /// degrades *normal* workload latency, so the malicious packets
  /// themselves are excluded here.
  [[nodiscard]] const LatencyStats& benign_stats() const noexcept { return benign_stats_; }
  [[nodiscard]] LatencyStats& benign_stats() noexcept { return benign_stats_; }

  /// Packets still waiting (or partially serialized) at a source queue.
  [[nodiscard]] std::size_t source_queue_length(NodeId id) const {
    return source_queues_[static_cast<std::size_t>(id)].size();
  }
  /// Largest source-queue length observed so far (congestion-collapse probe:
  /// Fig. 1 declares the system crashed when this diverges at FIR = 1).
  [[nodiscard]] std::size_t max_source_queue_length() const noexcept { return max_queue_len_; }

  /// Flits currently buffered inside routers (not counting source queues).
  [[nodiscard]] std::int64_t flits_in_network() const;
  /// True when no traffic is queued or in flight.
  // lint-allow(DL008): test oracle — the stop test of run_drain, which only golden tests run
  [[nodiscard]] bool drained() const;

  /// Flits of injection *demand* node `id` presented to its network
  /// interface since the last reset_ni_injection(): every accepted
  /// inject() call contributes its full flit count immediately, even while
  /// the NI is still serializing at its 1 flit/cycle bandwidth cap.
  /// Quarantine-dropped packets are not counted. Pure integer counters, so
  /// sampling them perturbs no floating-point telemetry.
  [[nodiscard]] std::int64_t ni_injected_flits(NodeId id) const {
    assert(cfg_.shape.valid(id));
    return ni_injected_flits_[static_cast<std::size_t>(id)];
  }
  /// Restart the per-node injection window counters (monitor window
  /// boundary; also part of reset_telemetry()).
  void reset_ni_injection();

  /// Register (or clear, with nullptr) the packet-delivery observer. At
  /// most one listener is supported — the mesh is owned by exactly one
  /// Simulation, whose request/reply workload (if any) is the one consumer.
  void set_delivery_listener(PacketDeliveryListener* listener) noexcept {
    delivery_listener_ = listener;
  }
  [[nodiscard]] PacketDeliveryListener* delivery_listener() const noexcept {
    return delivery_listener_;
  }

  /// Reset the per-port BOC counters on every router (the monitor calls
  /// this — or the finer-grained variants below — at window boundaries).
  /// Equivalent to reset_boc_counters() + reset_occupancy_windows() +
  /// reset_ni_injection().
  void reset_telemetry();
  /// Reset only the buffer-operation (BOC) counters, leaving the VCO
  /// occupancy-averaging windows untouched — lets the monitor sample BOC
  /// and VCO in either order without the BOC reset collapsing the VCO
  /// average to its instantaneous fallback.
  void reset_boc_counters();
  /// Start a new VCO occupancy-averaging window on every input port.
  void reset_occupancy_windows();

 private:
  /// One contiguous row band of routers plus everything its worker needs
  /// to step them without touching another shard's state (see the phase
  /// contract in the header block).
  struct Shard {
    NodeId first = 0;  ///< first router id of the band (inclusive)
    NodeId end = 0;    ///< one past the band's last router id

    // Activity bitsets: bit i = router / NI `first + i` (header block).
    std::vector<std::uint64_t> router_bits;
    std::vector<std::uint64_t> source_bits;

    /// This band's staged flits, credits and ejections, filled by its
    /// route phase and read by its own and its neighbors' apply phases
    /// after the barrier. Reserved at physical maxima in the constructor.
    LinkStage stage;
  };

  void ni_phase(Shard& sh);
  void route_phase(Shard& sh);
  void apply_phase(std::size_t s);
  void finish_cycle();
  /// Phases 1-3 for every shard owned by pool participant `participant`.
  void step_shards(std::int32_t participant);
  /// Set a source queue's bit in its shard (idempotent).
  void activate_source(NodeId id);

  MeshConfig cfg_;
  Cycle now_ = 0;
  PacketId next_packet_id_ = 0;
  std::vector<Router> routers_;  ///< by value, contiguous (flat storage)
  std::vector<std::deque<PendingPacket>> source_queues_;
  /// Local-input VC each NI is currently serializing into (-1 = none).
  std::vector<std::int32_t> inject_vc_;
  std::vector<char> quarantined_;
  /// Per-node injection demand (flits) this monitoring window.
  std::vector<std::int64_t> ni_injected_flits_;
  std::int64_t packets_dropped_ = 0;
  std::size_t max_queue_len_ = 0;
  PacketDeliveryListener* delivery_listener_ = nullptr;
  LatencyStats stats_;
  LatencyStats benign_stats_;

  std::vector<Shard> shards_;  ///< row bands, ascending (see header block)
  std::unique_ptr<common::WorkerPool> pool_;  ///< step_thread_count() - 1 threads
};

/// Full XY route from src to dst, inclusive of both endpoints.
[[nodiscard]] std::vector<NodeId> xy_route_path(const MeshShape& mesh, NodeId src, NodeId dst);

}  // namespace dl2f::noc
