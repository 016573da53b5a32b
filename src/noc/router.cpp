#include "noc/router.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace dl2f::noc {

namespace {

/// First set bit of `mask` at or after `start`, wrapping around — the bit
/// a rotated linear scan `for (offset...) slot = (start + offset) % slots`
/// would reach first. `mask` must be non-zero.
[[nodiscard]] std::size_t rotated_first_bit(std::uint64_t mask, std::size_t start) noexcept {
  assert(mask != 0);
  const std::uint64_t at_or_after = mask & ~((std::uint64_t{1} << start) - 1);
  return static_cast<std::size_t>(
      std::countr_zero(at_or_after != 0 ? at_or_after : mask));
}

}  // namespace

double InputPort::vc_occupancy() const noexcept {
  if (vcs.empty() || !connected) return 0.0;
  std::size_t occupied = 0;
  for (const auto& vc : vcs) {
    if (vc.occupied()) ++occupied;
  }
  return static_cast<double>(occupied) / static_cast<double>(vcs.size());
}

double InputPort::avg_vc_occupancy(Cycle now) const noexcept {
  if (vcs.empty() || !connected) return 0.0;
  const auto elapsed = now - occ_window_start;
  if (elapsed <= 0) return vc_occupancy();
  const auto integral = occ_integral + occupied_vcs * (now - occ_last_update);
  return static_cast<double>(integral) /
         (static_cast<double>(elapsed) * static_cast<double>(vcs.size()));
}

std::optional<std::int32_t> OutputPort::find_free_vc() const noexcept {
  for (std::int32_t v = 0; v < vc_count; ++v) {
    if (!vc_in_use[static_cast<std::size_t>(v)]) return v;
  }
  return std::nullopt;
}

Router::Router(NodeId id, const MeshShape& mesh, const RouterConfig& cfg, NodeId band_first,
               NodeId band_end)
    : id_(id), here_(mesh.coord_of(id)), cfg_(cfg),
      vcs_shift_(std::countr_zero(static_cast<std::uint32_t>(cfg.vcs_per_port))) {
  if (cfg.vc_depth < 1 || cfg.vc_depth > kMaxVcDepth) {
    throw std::invalid_argument("RouterConfig::vc_depth must be in [1, " +
                                std::to_string(kMaxVcDepth) + "], got " +
                                std::to_string(cfg.vc_depth));
  }
  if (cfg.vcs_per_port < 1 || cfg.vcs_per_port > kMaxVcsPerPort ||
      !std::has_single_bit(static_cast<std::uint32_t>(cfg.vcs_per_port))) {
    throw std::invalid_argument("RouterConfig::vcs_per_port must be a power of two in [1, " +
                                std::to_string(kMaxVcsPerPort) + "], got " +
                                std::to_string(cfg.vcs_per_port));
  }
  // Carve both arenas up front (they are never resized afterwards — the
  // spans and FlitFifo bindings below must stay valid across Router moves,
  // which only transfer the heap buffers). Slot strides are vc_depth
  // rounded up to a power of two so the ring index stays a mask.
  const auto vcs = static_cast<std::size_t>(cfg.vcs_per_port);
  const auto depth_pow2 =
      static_cast<std::size_t>(std::bit_ceil(static_cast<std::uint32_t>(cfg.vc_depth)));
  vc_storage_.resize(kNumPorts * vcs);
  slot_storage_.resize(kNumPorts * vcs * depth_pow2);
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    const auto dir = static_cast<Direction>(p);
    const bool connected = mesh.has_port(here_, dir);
    if (connected && dir != Direction::Local) {
      const NodeId to = *mesh.neighbor(id, dir);
      links_[p] = Link{to, to < band_first ? LinkStage::kPrev
                           : to >= band_end ? LinkStage::kNext
                                            : LinkStage::kOwn};
    }
    auto& in = inputs_[p];
    in.connected = connected;
    in.vcs = std::span<VirtualChannel>(vc_storage_.data() + p * vcs, vcs);
    for (std::size_t v = 0; v < vcs; ++v) {
      in.vcs[v].buffer.bind(slot_storage_.data() + (p * vcs + v) * depth_pow2,
                            static_cast<std::int32_t>(depth_pow2));
    }
    auto& out = outputs_[p];
    out.connected = connected;
    out.vc_count = cfg.vcs_per_port;
    out.credits.fill(0);
    for (std::size_t v = 0; v < vcs; ++v) out.credits[v] = cfg.vc_depth;
    out.vc_in_use.fill(false);
    vc_owner_[p].fill(-1);
  }
  // The local output (ejection) always drains in one cycle, so model it as
  // a connected port with per-VC credits that are returned instantly.
}

void Router::accept_flit(Direction d, std::int32_t vc, const Flit& flit, Cycle now) {
  auto& port = input(d);
  assert(port.connected);
  const std::size_t slot = slot_of(static_cast<std::size_t>(d), static_cast<std::size_t>(vc));
  auto& channel = vc_storage_[slot];
  assert(channel.buffer.size() < cfg_.vc_depth);
  if (!channel.occupied()) {
    port.occ_touch(now);
    ++port.occupied_vcs;
  }
  if (channel.buffer.empty()) {
    channel.route_cached = false;  // a new front flit invalidates the memo
    const std::uint64_t bit = std::uint64_t{1} << slot;
    nonempty_slots_ |= bit;
    if (channel.state == VirtualChannel::State::Active) {
      // Body/tail flits of a wormhole packet whose earlier flits already
      // left: the VC becomes switch-eligible again.
      const auto out_p = static_cast<std::size_t>(channel.out_dir);
      routed_to_[out_p] |= bit;
      if (channel.out_dir == Direction::Local ||
          outputs_[out_p].credits[static_cast<std::size_t>(channel.out_vc)] > 0) {
        credited_routed_to_[out_p] |= bit;
      }
    }
  }
  channel.buffer.push_back(flit);
  ++port.telemetry.buffer_writes;
  ++buffered_;
}

void Router::accept_credit(Direction out_dir, std::int32_t vc) noexcept {
  auto& port = output(out_dir);
  ++port.credits[static_cast<std::size_t>(vc)];
  assert(port.credits[static_cast<std::size_t>(vc)] <= cfg_.vc_depth);
  if (port.credits[static_cast<std::size_t>(vc)] == 1) {
    // 0 -> 1: the slot owning this downstream VC (if any, and if it holds
    // a flit) just became switch-eligible again.
    const auto out_p = static_cast<std::size_t>(out_dir);
    const std::int8_t slot = vc_owner_[out_p][static_cast<std::size_t>(vc)];
    if (slot >= 0) {
      const std::uint64_t bit = std::uint64_t{1} << static_cast<std::size_t>(slot);
      if ((routed_to_[out_p] & bit) != 0) {
        credited_routed_to_[out_p] |= bit;
      }
    }
  }
}

void Router::allocate_vcs(const MeshShape& mesh) {
  // Route computation + VC allocation for every Idle VC with a head flit
  // at the front of its FIFO. The scan starts from a rotating (port, vc)
  // offset so that competing inputs share scarce downstream VCs fairly
  // (without this, the lowest-numbered port wins the freed VC every cycle
  // and everyone else starves at the VA stage). Only Idle+non-empty slots
  // can act, so the rotated sweep iterates the set bits of that mask in
  // the same order the full slot scan would visit them.
  std::uint64_t candidates = nonempty_slots_ & ~active_slots_ & ~va_blocked_union_;
  while (candidates != 0) {
    const std::size_t slot = rotated_first_bit(candidates, va_round_robin_);
    const std::uint64_t bit = std::uint64_t{1} << slot;
    candidates &= ~bit;
    auto& vc = vc_storage_[slot];
    const Flit& head = vc.buffer.front();
    assert(is_head(head.type));
    if (!vc.route_cached) {
      vc.cached_route = xy_route_step(here_, mesh.coord_of(head.dst));
      vc.route_cached = true;
    }
    assert(vc.cached_route == xy_route_step(mesh, id_, head.dst));
    const Direction out_dir = vc.cached_route;
    auto& out = outputs_[static_cast<std::size_t>(out_dir)];
    if (out_dir == Direction::Local) {
      // Ejection needs no downstream VC ownership: the NI drains flits
      // the same cycle they win switch allocation.
      vc.state = VirtualChannel::State::Active;
      vc.out_dir = out_dir;
      vc.out_vc = 0;
      credited_routed_to_[static_cast<std::size_t>(out_dir)] |= bit;
    } else {
      const auto free_vc = out.find_free_vc();
      if (!free_vc) {
        // Stall in VA. Retrying is pointless — and skipped — until this
        // output port frees a downstream VC (the tail release in step()
        // re-arms every slot parked on the port).
        va_blocked_[static_cast<std::size_t>(out_dir)] |= bit;
        va_blocked_union_ |= bit;
        continue;
      }
      out.vc_in_use[static_cast<std::size_t>(*free_vc)] = true;
      vc_owner_[static_cast<std::size_t>(out_dir)][static_cast<std::size_t>(*free_vc)] =
          static_cast<std::int8_t>(slot);
      vc.state = VirtualChannel::State::Active;
      vc.out_dir = out_dir;
      vc.out_vc = *free_vc;
      if (out.credits[static_cast<std::size_t>(*free_vc)] > 0) {
        // A freshly claimed VC can still be credit-starved: the previous
        // owner's flits may not have drained downstream yet.
        credited_routed_to_[static_cast<std::size_t>(out_dir)] |= bit;
      }
    }
    active_slots_ |= bit;
    routed_to_[static_cast<std::size_t>(out_dir)] |= bit;
  }
}

void Router::step(const MeshShape& mesh, LinkStage& out, Cycle now) {
  // Idle fast-path: with no buffered flits there is nothing to route,
  // allocate or traverse (Active-but-empty VCs just wait for more flits).
  // Most routers are idle most cycles under realistic loads, so this
  // dominates simulation throughput on large meshes.
  if (buffered_ == 0) return;

  // The VA round-robin pointer rotates every stepped cycle regardless of
  // whether any slot needs allocation — the rotation schedule is part of
  // the deterministic arbitration sequence the golden tests pin.
  const std::size_t all_slots = kNumPorts * static_cast<std::size_t>(cfg_.vcs_per_port);
  if (++va_round_robin_ >= all_slots) va_round_robin_ = 0;
  allocate_vcs(mesh);

  // Switch allocation: pick one winning input VC per output port, scanning
  // input (port, vc) pairs from a rotating round-robin start so no input
  // starves. An input port may also send at most one flit per cycle.
  // credited_routed_to_[out] is exactly the set of eligible slots (Active,
  // routed to this output, flit buffered, downstream credit), so the
  // rotated first bit IS the winner — the slot a full scan skipping
  // starved candidates would choose. Only outputs with a candidate are
  // visited, lowest first: a slot routes to one output, so serving one
  // output never gives another a candidate.
  std::uint64_t busy_input_slots = 0;  ///< every slot of inputs that already sent
  unsigned outputs = 0;
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    outputs |= static_cast<unsigned>(credited_routed_to_[p] != 0) << p;
  }
  for (; outputs != 0; outputs &= outputs - 1) {
    const auto out_p = static_cast<std::size_t>(std::countr_zero(outputs));
    const auto out_dir = static_cast<Direction>(out_p);
    auto& port_out = outputs_[out_p];
    const std::uint64_t candidates = credited_routed_to_[out_p] & ~busy_input_slots;
    if (candidates == 0) continue;

    const std::size_t slot = rotated_first_bit(candidates, sa_round_robin_[out_p]);
    const std::uint64_t bit = std::uint64_t{1} << slot;
    const std::size_t in_p = slot_port(slot);
    auto& port = inputs_[in_p];
    auto& vc = vc_storage_[slot];
    assert(vc.state == VirtualChannel::State::Active && vc.out_dir == out_dir &&
           !vc.buffer.empty());
    assert(out_dir == Direction::Local ||
           port_out.credits[static_cast<std::size_t>(vc.out_vc)] > 0);

    // Switch + link traversal: stage the flit and the credit it frees
    // where their receivers' band applies them (see the file comment).
    const Flit& flit = vc.buffer.front();
    const bool tail = is_tail(flit.type);
    if (in_p != static_cast<std::size_t>(Direction::Local)) {
      const Link& up = links_[in_p];
      out.credits[up.band].push_back(CreditReturn{up.to, opposite(static_cast<Direction>(in_p)),
                                                  static_cast<std::int32_t>(slot_vc(slot))});
    }
    if (out_dir == Direction::Local) {
      out.ejected.push_back(flit);
    } else {
      const Link& down = links_[out_p];
      out.transfers[down.band].push_back(
          LinkTransfer{down.to, opposite(out_dir), vc.out_vc, flit});
      if (--port_out.credits[static_cast<std::size_t>(vc.out_vc)] == 0) {
        credited_routed_to_[out_p] &= ~bit;  // starved until a credit returns
      }
      if (tail) {
        port_out.vc_in_use[static_cast<std::size_t>(vc.out_vc)] = false;
        vc_owner_[out_p][static_cast<std::size_t>(vc.out_vc)] = -1;
        // A downstream VC just freed: every slot whose VA stalled on
        // this output port becomes allocatable again.
        va_blocked_union_ &= ~va_blocked_[out_p];
        va_blocked_[out_p] = 0;
      }
    }
    vc.buffer.pop_front();
    ++port.telemetry.buffer_reads;
    --buffered_;
    busy_input_slots |= port_slots(in_p);
    sa_round_robin_[out_p] = slot + 1 == all_slots ? 0 : slot + 1;

    if (tail) {
      vc.state = VirtualChannel::State::Idle;
      vc.out_vc = -1;
      vc.route_cached = false;  // the next front flit is a new packet's head
      active_slots_ &= ~bit;
      routed_to_[out_p] &= ~bit;
      credited_routed_to_[out_p] &= ~bit;
    }
    if (vc.buffer.empty()) {
      nonempty_slots_ &= ~bit;
      routed_to_[out_p] &= ~bit;
      credited_routed_to_[out_p] &= ~bit;
    }
    if (!vc.occupied()) {
      port.occ_touch(now);
      --port.occupied_vcs;
    }
  }
}

}  // namespace dl2f::noc
