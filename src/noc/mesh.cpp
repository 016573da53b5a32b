#include "noc/mesh.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/debug_hooks.hpp"
#include "common/worker_pool.hpp"

namespace dl2f::noc {

namespace {

std::int32_t resolve_shards(const MeshConfig& cfg) {
  const std::int32_t rows = cfg.shape.rows();
  std::int32_t k = cfg.shards;
  if (k <= 0) k = std::clamp(rows / 8, 1, 8);  // auto: ~8 rows per shard
  return std::clamp(k, 1, rows);
}

std::int32_t resolve_step_threads(const MeshConfig& cfg, std::int32_t shard_count) {
  std::int32_t t = cfg.step_threads;
  if (t <= 0) {
    t = std::max(1, static_cast<std::int32_t>(std::thread::hardware_concurrency()));
  }
  return std::clamp(t, 1, shard_count);
}

/// Call visit(i) for every set bit i, lowest first. Each word is read once
/// before its bits are visited, so visit may clear bit i (or any bit) of
/// `bits`; bits set during the walk are not visited.
template <typename Visit>
void for_each_bit(const std::vector<std::uint64_t>& bits, Visit&& visit) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      visit(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(std::countr_zero(word))));
    }
  }
}

void set_bit(std::vector<std::uint64_t>& bits, NodeId i) {
  bits[static_cast<std::size_t>(i) / 64] |= std::uint64_t{1} << (i % 64);
}

void clear_bit(std::vector<std::uint64_t>& bits, NodeId i) {
  bits[static_cast<std::size_t>(i) / 64] &= ~(std::uint64_t{1} << (i % 64));
}

void require_node(const MeshShape& shape, NodeId id, const char* caller) {
  if (!shape.valid(id)) {
    throw std::invalid_argument(std::string(caller) + ": node " + std::to_string(id) +
                                " is outside the mesh");
  }
}

}  // namespace

Mesh::Mesh(const MeshConfig& cfg) : cfg_(cfg) {
  if (cfg.shape.node_count() > 32767) {
    // Flit::src/dst are int16 (see flit.hpp); 181x181 is far beyond the
    // roadmap's 64x64 target, so the narrow ids are a non-constraint.
    throw std::invalid_argument("MeshConfig::shape node_count must be <= 32767");
  }
  if (cfg.packet_length_flits < 1) {
    // A zero or negative default length would serialize body flits forever
    // (no flit is ever the tail), silently livelocking the mesh.
    throw std::invalid_argument("MeshConfig::packet_length_flits must be >= 1, got " +
                                std::to_string(cfg.packet_length_flits));
  }
  const auto n = static_cast<std::size_t>(cfg.shape.node_count());
  const std::int32_t cols = cfg.shape.cols();
  source_queues_.resize(n);
  inject_vc_.assign(n, -1);
  quarantined_.assign(n, 0);
  ni_injected_flits_.assign(n, 0);

  // Row-band partition: contiguous bands of rows/k rows, the first rows%k
  // bands one row taller, so ids [first, end) are contiguous per shard.
  // Each router is built with its band, from which it fills its link table.
  const std::int32_t k = resolve_shards(cfg);
  const std::int32_t rows = cfg.shape.rows();
  const std::int32_t base_rows = rows / k;
  const std::int32_t extra = rows % k;
  shards_.resize(static_cast<std::size_t>(k));
  routers_.reserve(n);
  std::int32_t row0 = 0;
  for (std::int32_t s = 0; s < k; ++s) {
    auto& sh = shards_[static_cast<std::size_t>(s)];
    const std::int32_t band = base_rows + (s < extra ? 1 : 0);
    sh.first = row0 * cols;
    sh.end = (row0 + band) * cols;
    row0 += band;
    for (NodeId id = sh.first; id < sh.end; ++id) {
      routers_.emplace_back(id, cfg.shape, cfg.router, sh.first, sh.end);
    }
    // Reserve every arena at its physical per-cycle maximum so Mesh::step
    // can never allocate, not even transiently. A router latches at most
    // one flit per output port per cycle (4 link transfers + 1 ejection);
    // only ONE output port of a boundary-row router faces the adjacent
    // band, so at most `cols` flits cross a shard edge per cycle. Credits
    // are looser: up to kNumPorts output ports can each read a (distinct)
    // VC of the SAME boundary-facing input port in one cycle, so a
    // boundary router may owe up to kNumPorts cross-edge credits.
    const auto shard_n = static_cast<std::size_t>(sh.end - sh.first);
    const auto cross = static_cast<std::size_t>(cols);
    sh.router_bits.assign((shard_n + 63) / 64, 0);
    sh.source_bits.assign((shard_n + 63) / 64, 0);
    sh.stage.transfers[LinkStage::kOwn].reserve(shard_n * (kNumPorts - 1));
    sh.stage.transfers[LinkStage::kPrev].reserve(cross);
    sh.stage.transfers[LinkStage::kNext].reserve(cross);
    sh.stage.credits[LinkStage::kOwn].reserve(shard_n * kNumPorts);
    sh.stage.credits[LinkStage::kPrev].reserve(cross * kNumPorts);
    sh.stage.credits[LinkStage::kNext].reserve(cross * kNumPorts);
    sh.stage.ejected.reserve(shard_n);
  }
  assert(row0 == rows);

  pool_ = std::make_unique<common::WorkerPool>(resolve_step_threads(cfg, k) - 1);
}

Mesh::~Mesh() = default;
Mesh::Mesh(Mesh&&) noexcept = default;
Mesh& Mesh::operator=(Mesh&&) noexcept = default;

std::int32_t Mesh::step_thread_count() const noexcept { return pool_->participants(); }

PacketId Mesh::inject(NodeId src, NodeId dst, std::int32_t length_flits, bool malicious) {
  require_node(cfg_.shape, src, "Mesh::inject");
  require_node(cfg_.shape, dst, "Mesh::inject");
  if (quarantined_[static_cast<std::size_t>(src)] != 0) {
    ++packets_dropped_;
    return -1;
  }
  PendingPacket p;
  p.id = next_packet_id_++;
  p.src = src;
  p.dst = dst;
  p.length_flits = length_flits > 0 ? length_flits : cfg_.packet_length_flits;
  p.created = now_;
  p.malicious = malicious;
  auto& q = source_queues_[static_cast<std::size_t>(src)];
  q.push_back(p);
  ni_injected_flits_[static_cast<std::size_t>(src)] += p.length_flits;
  max_queue_len_ = std::max(max_queue_len_, q.size());
  activate_source(src);
  return p.id;
}

void Mesh::activate_source(NodeId id) {
  // Bands are ascending id ranges: id's is the last one starting at or below it.
  Shard& sh = *(std::upper_bound(shards_.begin(), shards_.end(), id,
                                 [](NodeId v, const Shard& b) { return v < b.first; }) - 1);
  set_bit(sh.source_bits, id - sh.first);
}

void Mesh::ni_phase(Shard& sh) {
  // Each NI serializes the packet at the head of its source queue into a
  // local-input virtual channel, one flit per cycle (injection bandwidth of
  // one flit/cycle, as in Garnet's NetworkInterface). Every node with a
  // non-empty source queue has its bit set; visiting in ascending node
  // order keeps the sweep deterministic. NIs touch only their own node's
  // queue and router, so shards never interact here.
  for_each_bit(sh.source_bits, [&](NodeId i) {
    const NodeId node_id = sh.first + i;
    const auto node = static_cast<std::size_t>(node_id);
    auto& q = source_queues_[node];
    if (q.empty()) {  // drained by a quarantine flush
      clear_bit(sh.source_bits, i);
      return;
    }
    auto& router = routers_[node];
    auto& local = router.input(Direction::Local);
    auto& pkt = q.front();

    if (inject_vc_[node] < 0) {
      // Claim an idle, empty VC for the new packet.
      for (std::size_t v = 0; v < local.vcs.size(); ++v) {
        const auto& vc = local.vcs[v];
        if (vc.state == VirtualChannel::State::Idle && vc.empty()) {
          inject_vc_[node] = static_cast<std::int32_t>(v);
          break;
        }
      }
      if (inject_vc_[node] < 0) return;  // all local VCs busy
    }

    auto& vc = local.vcs[static_cast<std::size_t>(inject_vc_[node])];
    if (vc.buffer.size() >= cfg_.router.vc_depth) return;

    Flit flit;
    flit.packet = pkt.id;
    flit.src = static_cast<std::int16_t>(pkt.src);
    flit.dst = static_cast<std::int16_t>(pkt.dst);
    flit.seq = static_cast<std::int16_t>(pkt.flits_sent);
    flit.created = pkt.created;
    flit.injected = now_;
    flit.malicious = pkt.malicious;
    if (pkt.length_flits == 1) {
      flit.type = FlitType::HeadTail;
    } else if (pkt.flits_sent == 0) {
      flit.type = FlitType::Head;
    } else if (pkt.flits_sent + 1 == pkt.length_flits) {
      flit.type = FlitType::Tail;
    } else {
      flit.type = FlitType::Body;
    }

    router.accept_flit(Direction::Local, inject_vc_[node], flit, now_);
    set_bit(sh.router_bits, i);
    ++pkt.flits_sent;
    if (pkt.flits_sent == pkt.length_flits) {
      q.pop_front();
      inject_vc_[node] = -1;
      if (q.empty()) clear_bit(sh.source_bits, i);
    }
  });
}

void Mesh::route_phase(Shard& sh) {
  // Step this shard's routers; each stages its flits and credits straight
  // into the band list that owns the receiver. The lists are cleared here
  // (not in the apply phase) so a quiescent shard still presents empty
  // lists to its neighbors' apply phases.
  sh.stage.clear();
  for_each_bit(sh.router_bits, [&](NodeId i) {
    Router& r = routers_[static_cast<std::size_t>(sh.first + i)];
    r.step(cfg_.shape, sh.stage, now_);
    // A router its step leaves empty leaves the set; an arrival in this
    // cycle's apply phase re-enters it.
    if (r.buffered_flits() == 0) clear_bit(sh.router_bits, i);
  });
}

void Mesh::apply_phase(std::size_t s) {
  // Apply every arrival addressed to shard s: previous shard's next-list,
  // own list, next shard's prev-list — ascending source-router order, and
  // only shard s's routers are written. (The apply order is also
  // state-equivalent under any interleaving: at most one flit per
  // (router, in_dir, vc) arrives per cycle, and credits commute.)
  Shard& sh = shards_[s];
  const auto apply_arrivals = [&](const std::vector<LinkTransfer>& list) {
    for (const auto& a : list) {
      // Arrivals land at the end of the cycle; timestamp them at now_ + 1
      // so the occupancy integral attributes the new flit to the next
      // cycle.
      assert(a.to >= sh.first && a.to < sh.end);
      routers_[static_cast<std::size_t>(a.to)].accept_flit(a.in_dir, a.vc, a.flit, now_ + 1);
      set_bit(sh.router_bits, a.to - sh.first);
    }
  };
  const auto apply_credits = [&](const std::vector<CreditReturn>& list) {
    for (const auto& c : list) {
      routers_[static_cast<std::size_t>(c.to)].accept_credit(c.out_dir, c.vc);
    }
  };
  const bool has_prev = s > 0;
  const bool has_next = s + 1 < shards_.size();
  if (has_prev) apply_arrivals(shards_[s - 1].stage.transfers[LinkStage::kNext]);
  apply_arrivals(sh.stage.transfers[LinkStage::kOwn]);
  if (has_next) apply_arrivals(shards_[s + 1].stage.transfers[LinkStage::kPrev]);
  if (has_prev) apply_credits(shards_[s - 1].stage.credits[LinkStage::kNext]);
  apply_credits(sh.stage.credits[LinkStage::kOwn]);
  if (has_next) apply_credits(shards_[s + 1].stage.credits[LinkStage::kPrev]);
}

void Mesh::step_shards(std::int32_t participant) {
  // Checked form of the arena invariant above, on every participant:
  // stepping never allocates, not even transiently (Debug-only; see
  // common/debug_hooks.hpp).
  const dbg::NoAllocScope no_alloc("Mesh::step_shards");
  const auto k = static_cast<std::int32_t>(shards_.size());
  const std::int32_t stride = pool_->participants();
  for (std::int32_t s = participant; s < k; s += stride) {
    auto& sh = shards_[static_cast<std::size_t>(s)];
    ni_phase(sh);
    route_phase(sh);
  }
  pool_->barrier();
  for (std::int32_t s = participant; s < k; s += stride) {
    apply_phase(static_cast<std::size_t>(s));
  }
}

void Mesh::finish_cycle() {
  // Serial coordinator phase: the order-sensitive floating-point latency
  // accumulation and the delivery-listener callbacks run on the calling
  // thread, shards ascending = router ids ascending — byte-identical to
  // the single-shard sweep at any shard/thread count.
  const dbg::NoAllocScope no_alloc("Mesh::finish_cycle");
  for (const auto& sh : shards_) {
    for (const auto& f : sh.stage.ejected) {
      stats_.on_flit_ejected(f, now_);
      if (is_tail(f.type)) {
        stats_.on_packet_ejected(f, now_);
        if (delivery_listener_ != nullptr) {
          // Documented exception to the no-alloc contract: the listener
          // is external code (workload endpoints grow reply queues).
          const dbg::AllocBypassScope external_callback;
          delivery_listener_->on_packet_delivered(f, now_);
        }
      }
      if (!f.malicious) {
        benign_stats_.on_flit_ejected(f, now_);
        if (is_tail(f.type)) benign_stats_.on_packet_ejected(f, now_);
      }
    }
  }
  ++now_;
}

void Mesh::step() {
  pool_->run([this](std::int32_t participant) { step_shards(participant); });
  finish_cycle();
}

void Mesh::set_quarantined(NodeId id, bool quarantined) {
  require_node(cfg_.shape, id, "Mesh::set_quarantined");
  quarantined_[static_cast<std::size_t>(id)] = quarantined ? 1 : 0;
  if (!quarantined) return;
  // Flush the pending backlog too: a saturating attacker accumulates
  // thousands of queued packets, which would otherwise keep flooding for
  // whole windows after the fence. A packet already mid-serialization must
  // finish (dropping it would strand a tail-less wormhole packet that
  // holds its virtual channels forever); everything behind it is dropped.
  // An emptied queue leaves the source set at the next NI sweep.
  auto& q = source_queues_[static_cast<std::size_t>(id)];
  const std::size_t keep = (!q.empty() && q.front().flits_sent > 0) ? 1 : 0;
  packets_dropped_ += static_cast<std::int64_t>(q.size() - keep);
  q.erase(q.begin() + static_cast<std::ptrdiff_t>(keep), q.end());
}

std::vector<NodeId> Mesh::quarantined_nodes() const {
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < quarantined_.size(); ++i) {
    if (quarantined_[i] != 0) nodes.push_back(static_cast<NodeId>(i));
  }
  return nodes;
}

std::int64_t Mesh::flits_in_network() const {
  // Between steps every router holding flits has its bit set, so the sum
  // over the set bits is the sum over the whole mesh.
  std::int64_t total = 0;
  for (const auto& sh : shards_) {
    for_each_bit(sh.router_bits, [&](NodeId i) {
      total += routers_[static_cast<std::size_t>(sh.first + i)].buffered_flits();
    });
  }
  return total;
}

bool Mesh::drained() const {
  if (flits_in_network() != 0) return false;
  return std::all_of(source_queues_.begin(), source_queues_.end(),
                     [](const auto& q) { return q.empty(); });
}

void Mesh::reset_boc_counters() {
  for (auto& r : routers_) {
    for (std::size_t p = 0; p < kNumPorts; ++p) {
      r.input(static_cast<Direction>(p)).telemetry.reset();
    }
  }
}

void Mesh::reset_occupancy_windows() {
  for (auto& r : routers_) {
    for (std::size_t p = 0; p < kNumPorts; ++p) {
      r.input(static_cast<Direction>(p)).occ_reset(now_);
    }
  }
}

void Mesh::reset_ni_injection() {
  std::fill(ni_injected_flits_.begin(), ni_injected_flits_.end(), std::int64_t{0});
}

void Mesh::reset_telemetry() {
  reset_boc_counters();
  reset_occupancy_windows();
  reset_ni_injection();
}

std::vector<NodeId> xy_route_path(const MeshShape& mesh, NodeId src, NodeId dst) {
  std::vector<NodeId> path;
  NodeId at = src;
  path.push_back(at);
  while (at != dst) {
    const Direction d = xy_route_step(mesh, at, dst);
    const auto next = mesh.neighbor(at, d);
    assert(next.has_value());
    at = *next;
    path.push_back(at);
  }
  return path;
}

}  // namespace dl2f::noc
