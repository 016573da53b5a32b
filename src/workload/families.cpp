#include "workload/families.hpp"

#include <algorithm>
#include <cassert>

namespace dl2f::workload {

namespace {

/// All nodes not in `servers`, ascending.
std::vector<NodeId> client_nodes(const MeshShape& mesh, const std::vector<NodeId>& servers) {
  std::vector<NodeId> clients;
  clients.reserve(static_cast<std::size_t>(mesh.node_count()));
  for (NodeId id = 0; id < mesh.node_count(); ++id) {
    if (std::find(servers.begin(), servers.end(), id) == servers.end()) clients.push_back(id);
  }
  return clients;
}

}  // namespace

BurstyTraceSource::BurstyTraceSource(const Config& cfg, std::uint64_t seed)
    : cfg_(cfg), quiet_rate_(cfg.quiet_rate), burst_rate_(cfg.burst_rate),
      clients_(client_nodes(cfg.mesh, cfg.servers)), rng_(seed) {
  assert(!cfg_.servers.empty());
  assert(cfg_.quiet_cycles + cfg_.burst_cycles > 0);
}

void BurstyTraceSource::draw(noc::Cycle now, std::vector<Request>& out) {
  const noc::Cycle period = cfg_.quiet_cycles + cfg_.burst_cycles;
  const bool burst = (now % period) >= cfg_.quiet_cycles;
  const BernoulliP rate = burst ? burst_rate_ : quiet_rate_;
  for (const NodeId client : clients_) {
    if (!rng_.bernoulli(rate)) continue;
    const auto pick = rng_.uniform_int(0, static_cast<std::int64_t>(cfg_.servers.size()) - 1);
    out.push_back(Request{client, cfg_.servers[static_cast<std::size_t>(pick)]});
  }
}

MarkovOnOffTraceSource::MarkovOnOffTraceSource(const Config& cfg, std::uint64_t seed)
    : cfg_(cfg), p_on_(cfg.p_on), p_off_(cfg.p_off), on_rate_(cfg.on_rate),
      clients_(client_nodes(cfg.mesh, cfg.servers)), rng_(seed) {
  assert(!cfg_.servers.empty());
  on_.assign(clients_.size(), 0);
}

void MarkovOnOffTraceSource::draw(noc::Cycle /*now*/, std::vector<Request>& out) {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (on_[i] == 0) {
      if (rng_.bernoulli(p_on_)) on_[i] = 1;
    } else if (rng_.bernoulli(p_off_)) {
      on_[i] = 0;
    }
    if (on_[i] == 0 || !rng_.bernoulli(on_rate_)) continue;
    const auto pick = rng_.uniform_int(0, static_cast<std::int64_t>(cfg_.servers.size()) - 1);
    out.push_back(Request{clients_[i], cfg_.servers[static_cast<std::size_t>(pick)]});
  }
}

std::vector<NodeId> corner_servers(const MeshShape& mesh) {
  std::vector<NodeId> servers{mesh.id_of({0, 0}), mesh.id_of({mesh.cols() - 1, 0}),
                              mesh.id_of({0, mesh.rows() - 1}),
                              mesh.id_of({mesh.cols() - 1, mesh.rows() - 1})};
  std::sort(servers.begin(), servers.end());
  servers.erase(std::unique(servers.begin(), servers.end()), servers.end());
  return servers;
}

std::unique_ptr<RequestReplyWorkload> make_trace_workload(TraceWorkloadKind kind,
                                                          const MeshShape& mesh,
                                                          std::uint64_t seed) {
  const auto servers = corner_servers(mesh);
  std::unique_ptr<RequestSource> source;
  RequestReplyConfig cfg;
  switch (kind) {
    case TraceWorkloadKind::TraceReplay: {
      BurstyTraceSource::Config src;
      src.mesh = mesh;
      src.servers = servers;
      src.quiet_cycles = 600;
      src.burst_cycles = 200;
      src.quiet_rate = 0.004;
      src.burst_rate = 0.020;
      source = std::make_unique<BurstyTraceSource>(src, mix64(seed ^ 0x7261636572ULL));
      cfg.open_loop = false;
      cfg.window = 8;
      cfg.service_latency = 20;
      cfg.reply_flits = 5;
      break;
    }
    case TraceWorkloadKind::OpenLoopBurst: {
      MarkovOnOffTraceSource::Config src;
      src.mesh = mesh;
      src.servers = servers;
      src.p_on = 0.002;
      src.p_off = 0.010;
      src.on_rate = 0.080;
      source = std::make_unique<MarkovOnOffTraceSource>(src, mix64(seed ^ 0x6f70656eULL));
      cfg.open_loop = true;
      cfg.service_latency = 16;
      cfg.reply_flits = 3;
      break;
    }
    case TraceWorkloadKind::MemHog: {
      BurstyTraceSource::Config src;
      src.mesh = mesh;
      src.servers = servers;
      // quiet == burst: constant-rate memory stream near the corner tiles'
      // reply bandwidth (60 clients x 0.015 req/cycle x 4 reply flits
      // / 4 servers ~ 0.9 flits/cycle/server on an 8x8 mesh).
      src.quiet_cycles = 400;
      src.burst_cycles = 400;
      src.quiet_rate = 0.015;
      src.burst_rate = 0.015;
      source = std::make_unique<BurstyTraceSource>(src, mix64(seed ^ 0x6d656d686f67ULL));
      cfg.open_loop = false;
      cfg.window = 12;
      cfg.service_latency = 24;
      cfg.reply_flits = 4;
      break;
    }
  }
  return std::make_unique<RequestReplyWorkload>(mesh, std::move(source), servers, cfg);
}

}  // namespace dl2f::workload
