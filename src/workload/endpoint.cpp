#include "workload/endpoint.hpp"

#include <algorithm>
#include <cassert>

namespace dl2f::workload {

namespace {
/// Every request is a single-flit read; the reply carries the payload.
constexpr std::int32_t kRequestFlits = 1;
}  // namespace

RequestReplyWorkload::RequestReplyWorkload(const MeshShape& mesh,
                                           std::unique_ptr<RequestSource> source,
                                           std::vector<NodeId> servers,
                                           const RequestReplyConfig& cfg)
    : mesh_shape_(mesh), source_(std::move(source)), servers_(std::move(servers)), cfg_(cfg) {
  assert(source_ != nullptr);
  std::sort(servers_.begin(), servers_.end());
  servers_.erase(std::unique(servers_.begin(), servers_.end()), servers_.end());
  assert(std::all_of(servers_.begin(), servers_.end(),
                     [&](NodeId s) { return mesh_shape_.valid(s); }));
  const auto n = static_cast<std::size_t>(mesh_shape_.node_count());
  pending_.resize(n);
  outstanding_.assign(n, 0);
  reply_queues_.resize(n);
  latency_hist_.assign(kLatencyBuckets, 0);
}

RequestReplyWorkload::~RequestReplyWorkload() {
  // Simulation destroys its generators before its mesh (mesh_ is declared
  // first), so deregistering here never touches a dead mesh.
  if (registered_mesh_ != nullptr && registered_mesh_->delivery_listener() == this) {
    registered_mesh_->set_delivery_listener(nullptr);
  }
}

void RequestReplyWorkload::tick(noc::Mesh& mesh) {
  if (registered_mesh_ != &mesh) {
    assert(mesh.delivery_listener() == nullptr);
    mesh.set_delivery_listener(this);
    registered_mesh_ = &mesh;
  }
  const noc::Cycle now = mesh.now();
  serve_replies(mesh, now);
  drawn_.clear();
  source_->draw(now, drawn_);
  for (const Request& r : drawn_) {
    assert(mesh_shape_.valid(r.client) &&
           std::binary_search(servers_.begin(), servers_.end(), r.server));
    pending_[static_cast<std::size_t>(r.client)].push_back(r.server);
  }
  issue_requests(mesh, now);
}

void RequestReplyWorkload::serve_replies(noc::Mesh& mesh, noc::Cycle now) {
  // Ascending server order keeps the injection sequence — and therefore
  // the whole simulation — deterministic. Requests only ever target
  // servers_, so no other node holds a reply queue.
  for (const NodeId server : servers_) {
    auto& q = reply_queues_[static_cast<std::size_t>(server)];
    while (!q.empty() && q.front().ready <= now) {
      if (mesh.source_queue_length(server) >= kMaxNiQueue) {
        // NI backed up: the reply stays queued (head-of-line within this
        // server only) and the wait is accounted as a stall.
        ++stats_.reply_stall_cycles;
        break;
      }
      const PendingReply r = q.front();
      q.pop_front();
      const noc::PacketId pid = mesh.inject(server, r.client, cfg_.reply_flits);
      if (pid < 0) {
        // Fenced server: the reply is lost and the client's outstanding
        // window never drains — dependents of a false fence visibly stall.
        ++stats_.replies_dropped;
        continue;
      }
      reply_meta_.emplace(pid, ReplyMeta{r.client, r.issue_cycle});
      ++stats_.replies_issued;
    }
  }
}

void RequestReplyWorkload::issue_requests(noc::Mesh& mesh, noc::Cycle now) {
  for (NodeId node = 0; node < mesh_shape_.node_count(); ++node) {
    auto& due = pending_[static_cast<std::size_t>(node)];
    while (!due.empty()) {
      if (!cfg_.open_loop) {
        // Closed loop: the outstanding window and the NI queue both gate
        // issue; a blocked head blocks only this client's later requests.
        if (outstanding_[static_cast<std::size_t>(node)] >= cfg_.window ||
            mesh.source_queue_length(node) >= kMaxNiQueue) {
          ++stats_.issue_stall_cycles;
          break;
        }
      }
      const noc::PacketId pid = mesh.inject(node, due.front(), kRequestFlits);
      due.pop_front();
      if (pid < 0) {
        ++stats_.requests_dropped;
        continue;
      }
      request_meta_.emplace(pid, RequestMeta{now});
      ++stats_.requests_issued;
      ++outstanding_[static_cast<std::size_t>(node)];
    }
  }
}

void RequestReplyWorkload::on_packet_delivered(const noc::Flit& tail, noc::Cycle now) {
  if (const auto it = request_meta_.find(tail.packet); it != request_meta_.end()) {
    ++stats_.requests_delivered;
    reply_queues_[static_cast<std::size_t>(tail.dst)].push_back(
        PendingReply{now + cfg_.service_latency, tail.src, it->second.issue_cycle});
    request_meta_.erase(it);
    return;
  }
  if (const auto it = reply_meta_.find(tail.packet); it != reply_meta_.end()) {
    const noc::Cycle latency = now - it->second.issue_cycle;
    ++stats_.replies_completed;
    stats_.reply_latency_sum += static_cast<double>(latency);
    stats_.reply_latency_max = std::max(stats_.reply_latency_max, latency);
    const auto bucket =
        std::min(static_cast<std::size_t>(latency), latency_hist_.size() - 1);
    ++latency_hist_[bucket];
    auto& out = outstanding_[static_cast<std::size_t>(it->second.client)];
    assert(out > 0);
    --out;
    reply_meta_.erase(it);
    return;
  }
  // Not ours: synthetic benign traffic or a flooding overlay sharing the
  // mesh — the listener only reacts to packets it issued.
}

}  // namespace dl2f::workload
