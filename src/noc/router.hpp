// A 5-port virtual-channel wormhole router (Garnet-style).
//
// Each input port owns `vcs_per_port` virtual channels, each a FIFO of
// `vc_depth` flits. The per-cycle micro-pipeline is the classic
// RC -> VA -> SA -> ST sequence, collapsed into one cycle per hop:
//
//   * Route computation: an Idle VC whose front flit is a head computes the
//     XY output direction.
//   * VC allocation: the VC claims a free downstream virtual channel on
//     that output (ownership lasts until the tail flit leaves).
//   * Switch allocation: among all input VCs with a buffered flit, an
//     allocated output and at least one credit, one winner is chosen per
//     output port AND per input port (round-robin priority).
//   * Switch/link traversal: the winning flit is popped (a buffer read),
//     a credit is returned upstream, and the flit is latched onto the
//     output link to arrive at the neighbor next cycle.
//
// The router also accumulates the two telemetry features DL2Fence consumes:
// instantaneous virtual-channel occupancy (VCO) and accumulated buffer
// operation counts (BOC = buffer writes + reads since the last sample).
//
// Storage layout: stepping a 32x32 mesh is bound by cache misses, not
// arithmetic, so the router separates its *control* state from its
// *payload* storage. Everything the per-cycle VA/SA scans touch — port
// structs, VC metadata, credit arrays, occupancy bitmasks, the link table —
// lives inline or in one small per-router vector (vc_storage_) that stays
// resident in L2 for whole sweeps. The flit slots live in a second
// per-router vector (slot_storage_) sized by the *configured* vc_depth,
// reached only when a flit is pushed or popped. Both vectors are
// heap-stable, so Router is cheaply movable.
//
// Slot addressing: vc_storage_ holds input port p's VC v at slot
// p * vcs_per_port + v, the index of that VC's bit in the occupancy masks,
// so the hot paths go from a mask bit straight to its VC record.
// InputPort::vcs views the same records port by port.
//
// Link table: per mesh direction, the neighbor's id and which of the
// LinkStage lists (kOwn, kPrev, kNext) its band applies. step() stages each
// winning flit and returned credit once, straight into that list and
// addressed to the port it lands on; the mesh applies it as is.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/geometry.hpp"
#include "noc/flit.hpp"

namespace dl2f::noc {

struct RouterConfig {
  std::int32_t vcs_per_port = 4;  ///< a power of two, at most kMaxVcsPerPort
  std::int32_t vc_depth = 4;      ///< flit slots per VC; at most kMaxVcDepth
};

/// Upper bound on vcs_per_port: every (input port, VC) pair is one bit in
/// the router's 64-bit occupancy masks, so kNumPorts * vcs_per_port <= 64;
/// 8 also bounds the fixed-capacity credit arrays in OutputPort below.
inline constexpr std::int32_t kMaxVcsPerPort = 8;

/// One virtual channel: wormhole allocation state plus a flit FIFO whose
/// slots live out-of-line in the router's slot arena (see file comment).
struct VirtualChannel {
  enum class State : std::uint8_t { Idle, Active };

  FlitFifo buffer;
  State state = State::Idle;
  Direction out_dir = Direction::Local;  ///< valid when Active
  /// Memoized XY route of the head flit at the FRONT of the buffer, for
  /// Idle VCs stalled in VC allocation: a VA retry re-reads this instead
  /// of redoing the coord_of division chain every cycle (invalidated
  /// whenever the front flit changes packet — push-to-empty, tail pop).
  Direction cached_route = Direction::Local;
  bool route_cached = false;
  std::int32_t out_vc = -1;              ///< downstream VC id, valid when Active

  [[nodiscard]] bool empty() const noexcept { return buffer.empty(); }
  [[nodiscard]] bool occupied() const noexcept {
    return !buffer.empty() || state == State::Active;
  }
};

/// Per-input-port feature counters sampled by the global monitor.
struct PortTelemetry {
  std::int64_t buffer_writes = 0;  ///< flits enqueued since last reset
  std::int64_t buffer_reads = 0;   ///< flits dequeued since last reset

  void reset() noexcept { buffer_writes = buffer_reads = 0; }
  [[nodiscard]] std::int64_t operations() const noexcept { return buffer_writes + buffer_reads; }
};

struct InputPort {
  std::span<VirtualChannel> vcs;  ///< this port's virtual channels (router-owned storage)
  PortTelemetry telemetry;
  bool connected = false;  ///< false for edge-facing ports that have no link

  // Occupancy accounting for the VCO feature. Garnet routers hold flits
  // across a 4-5 stage pipeline, so an instantaneous VC-occupancy snapshot
  // there reflects sustained congestion; this router is single-cycle and
  // drains VCs far faster, so the monitor reads the *time-averaged*
  // occupancy over the sampling window instead (same [0,1] range and
  // semantics; README, "Substitutions"). The integral is maintained
  // incrementally at occupancy transitions, keeping idle routers free.
  std::int32_t occupied_vcs = 0;    ///< current number of occupied VCs
  std::int64_t occ_integral = 0;    ///< sum over cycles of occupied_vcs
  Cycle occ_last_update = 0;
  Cycle occ_window_start = 0;

  /// Fold elapsed time into the occupancy integral before a transition.
  void occ_touch(Cycle now) noexcept {
    occ_integral += occupied_vcs * (now - occ_last_update);
    occ_last_update = now;
  }
  /// Start a new averaging window (monitor sampling boundary).
  void occ_reset(Cycle now) noexcept {
    occ_integral = 0;
    occ_last_update = now;
    occ_window_start = now;
  }

  /// Fraction of this port's VCs currently holding a packet
  /// (occupied VCs / total VCs, instantaneous, in [0,1]).
  [[nodiscard]] double vc_occupancy() const noexcept;

  /// Time-averaged VC occupancy since the last occ_reset, in [0,1].
  /// Falls back to the instantaneous value when no time has elapsed.
  [[nodiscard]] double avg_vc_occupancy(Cycle now) const noexcept;
};

struct OutputPort {
  /// Credits per downstream VC (free buffer slots we may still send into).
  /// Fixed-capacity so the port is inline and trivially movable; entries
  /// at index >= the configured vcs_per_port are unused.
  std::array<std::int32_t, kMaxVcsPerPort> credits{};
  /// Which downstream VC ids are currently owned by one of our input VCs.
  std::array<bool, kMaxVcsPerPort> vc_in_use{};
  std::int32_t vc_count = 0;  ///< configured vcs_per_port (scan bound)
  bool connected = false;

  [[nodiscard]] std::optional<std::int32_t> find_free_vc() const noexcept;
};

/// A flit crossing a link this cycle, addressed to the input port and VC
/// it lands in at the downstream router.
struct LinkTransfer {
  NodeId to = -1;
  Direction in_dir = Direction::Local;
  std::int32_t vc = -1;
  Flit flit;
};

/// A credit crossing a link this cycle, addressed to the output port and
/// downstream VC it re-credits at the upstream router.
struct CreditReturn {
  NodeId to = -1;
  Direction out_dir = Direction::Local;
  std::int32_t vc = -1;
};

/// What the routers of one row band stage in a cycle (see mesh.hpp): one
/// list of transfers and one of credits per band that owns a receiving
/// router, plus the flits that reached their destination.
struct LinkStage {
  static constexpr std::uint8_t kOwn = 0;   ///< the stepping router's own band
  static constexpr std::uint8_t kPrev = 1;  ///< the band of lower router ids
  static constexpr std::uint8_t kNext = 2;  ///< the band of higher router ids

  std::array<std::vector<LinkTransfer>, 3> transfers;
  std::array<std::vector<CreditReturn>, 3> credits;
  std::vector<Flit> ejected;  ///< ascending router order

  void clear() noexcept {
    for (auto& t : transfers) t.clear();
    for (auto& c : credits) c.clear();
    ejected.clear();
  }
};

class Router {
 public:
  /// Throws std::invalid_argument when `cfg` is out of range (1 <= vc_depth
  /// <= kMaxVcDepth, vcs_per_port >= 1). Ids [band_first, band_end) are the
  /// row band whose LinkStage this router stages into; neighbors below it
  /// go to kPrev, above it to kNext. The default band is the whole mesh.
  Router(NodeId id, const MeshShape& mesh, const RouterConfig& cfg, NodeId band_first = 0,
         NodeId band_end = std::numeric_limits<NodeId>::max());

  // Movable (heap-stable internal arenas; see file comment), not copyable:
  // a copy would alias the source's VC/slot storage through the spans.
  Router(Router&&) noexcept = default;
  Router& operator=(Router&&) noexcept = default;
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  [[nodiscard]] InputPort& input(Direction d) noexcept {
    return inputs_[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] const InputPort& input(Direction d) const noexcept {
    return inputs_[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] OutputPort& output(Direction d) noexcept {
    return outputs_[static_cast<std::size_t>(d)];
  }

  /// Enqueue a flit arriving on input port `d`, VC `vc` (counts one buffer
  /// write). The caller guarantees a free slot (credit flow control).
  /// `now` timestamps the occupancy transition for VCO averaging.
  void accept_flit(Direction d, std::int32_t vc, const Flit& flit, Cycle now = 0);

  /// Re-credit a downstream VC slot after the neighbor drained one flit.
  void accept_credit(Direction out_dir, std::int32_t vc) noexcept;

  /// Run one cycle of RC/VA/SA/ST. Ejected flits (destination reached) are
  /// appended to `out.ejected`; flits bound for neighbors and credits owed
  /// upstream to the `out` list of the band that owns the receiving router.
  void step(const MeshShape& mesh, LinkStage& out, Cycle now = 0);

  /// Total flits buffered across all ports (for drain / deadlock checks).
  [[nodiscard]] std::int64_t buffered_flits() const noexcept { return buffered_; }

 private:
  void allocate_vcs(const MeshShape& mesh);

  /// Slot index of (input port, vc) in the occupancy bitmasks below.
  [[nodiscard]] std::size_t slot_of(std::size_t port, std::size_t vc) const noexcept {
    return port * static_cast<std::size_t>(cfg_.vcs_per_port) + vc;
  }
  /// Mask covering every VC slot of one input port.
  [[nodiscard]] std::uint64_t port_slots(std::size_t port) const noexcept {
    const auto vcs = static_cast<std::size_t>(cfg_.vcs_per_port);
    return ((std::uint64_t{1} << vcs) - 1) << (port * vcs);
  }
  /// Input port of a slot index: a shift, since vcs_per_port is a power
  /// of two, keeping a hardware divide off the SA/VA hot path.
  [[nodiscard]] std::size_t slot_port(std::size_t slot) const noexcept {
    return slot >> vcs_shift_;
  }
  /// VC index of a slot within its input port (see slot_port).
  [[nodiscard]] std::size_t slot_vc(std::size_t slot) const noexcept {
    return slot & ((std::size_t{1} << vcs_shift_) - 1);
  }

  /// One row of the link table (see file comment); to == -1 at a mesh edge.
  struct Link {
    NodeId to = -1;
    std::uint8_t band = LinkStage::kOwn;
  };

  NodeId id_;
  Coord here_;  ///< coord_of(id_), kept for route computation
  RouterConfig cfg_;
  std::int32_t vcs_shift_;  ///< log2(vcs_per_port)
  std::array<InputPort, kNumPorts> inputs_;
  std::array<OutputPort, kNumPorts> outputs_;
  std::array<Link, kNumMeshDirections> links_{};
  std::array<std::size_t, kNumPorts> sa_round_robin_{};  ///< per-output priority pointer
  std::size_t va_round_robin_ = 0;  ///< rotating start for VC allocation fairness
  std::int64_t buffered_ = 0;       ///< flits currently buffered (idle fast-path)

  // Hot-path occupancy bitmasks, one bit per (input port, VC) slot. The
  // VA/SA stages iterate set bits in rotated round-robin order instead of
  // sweeping every slot — visiting an empty VirtualChannel costs a cache
  // line, and most slots are empty under realistic loads.
  // Invariants (maintained at every flit push/pop, credit movement and
  // state transition):
  //   nonempty_slots_  bit set  <=>  that VC's ring holds >= 1 flit
  //   active_slots_    bit set  <=>  that VC's state == Active
  //   routed_to_[d]    bit set  <=>  Active, out_dir == d AND non-empty
  //   credited_routed_to_[d] = routed_to_[d] restricted to slots whose
  //                    downstream VC has a credit (Local always does) —
  //                    exactly the SA eligibility test, so under
  //                    saturation SA picks its winner in one bit scan
  //                    instead of walking credit-starved slots (ISSUE 9:
  //                    this scan dominated 32x32 attack stepping).
  //   vc_owner_[d][v]  slot of the Active input VC owning downstream
  //                    (d, v), or -1 — lets a returning credit re-arm
  //                    exactly the one slot it un-starves.
  std::uint64_t nonempty_slots_ = 0;
  std::uint64_t active_slots_ = 0;
  std::array<std::uint64_t, kNumPorts> routed_to_{};
  std::array<std::uint64_t, kNumPorts> credited_routed_to_{};
  std::array<std::array<std::int8_t, kMaxVcsPerPort>, kNumPorts> vc_owner_{};

  // VA parking:
  //   va_blocked_[d]    Idle slots whose VA attempt stalled because output
  //                     d had no free downstream VC; they are excluded
  //                     from VA retries until d frees one (a retry before
  //                     that is a guaranteed no-op, so skipping it cannot
  //                     change any allocation outcome).
  //   va_blocked_union_ = OR of va_blocked_[d].
  // A router whose slots are all parked or credit-starved still steps:
  // it rotates its VA pointer and finds no VA or SA candidate in a few
  // mask tests.
  std::array<std::uint64_t, kNumPorts> va_blocked_{};
  std::uint64_t va_blocked_union_ = 0;

  // Out-of-line arenas (see file comment). vc_storage_ holds the
  // kNumPorts * vcs_per_port VirtualChannel records by slot, viewed port
  // by port through the input ports' spans; slot_storage_ holds each VC's
  // flit slots (vc_depth rounded up to a power of two for masked ring
  // indexing). Sized once in the constructor, never resized — every span
  // and FlitFifo binding stays valid for the router's lifetime, across
  // moves.
  std::vector<VirtualChannel> vc_storage_;
  std::vector<Flit> slot_storage_;
};

}  // namespace dl2f::noc
