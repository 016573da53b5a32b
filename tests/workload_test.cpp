// Request/reply workload subsystem: open- vs closed-loop injection
// accounting, reply-after-service-latency timing, backpressure/quarantine
// stalls, and determinism of the generated arrival processes and the
// families built on them.
#include "workload/endpoint.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "traffic/simulation.hpp"
#include "workload/families.hpp"

namespace dl2f::workload {
namespace {

/// Draws `cycles` consecutive cycles from `src` as (cycle, client, server)
/// triples, checking that each cycle's clients ascend.
std::vector<std::array<std::int64_t, 3>> draw_stream(RequestSource& src, noc::Cycle cycles) {
  std::vector<std::array<std::int64_t, 3>> stream;
  std::vector<Request> out;
  for (noc::Cycle now = 0; now < cycles; ++now) {
    out.clear();
    src.draw(now, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(out[i - 1].client, out[i].client) << "cycle " << now;
      }
      stream.push_back({now, out[i].client, out[i].server});
    }
  }
  return stream;
}

TEST(GeneratedSources, SameSeedSameStream) {
  BurstyTraceSource::Config cfg;
  cfg.mesh = MeshShape::square(8);
  cfg.servers = corner_servers(cfg.mesh);
  BurstyTraceSource a(cfg, 42), b(cfg, 42), c(cfg, 43);
  const auto sa = draw_stream(a, 400);
  EXPECT_GE(sa.size(), 50U);
  EXPECT_EQ(sa, draw_stream(b, 400));
  EXPECT_NE(sa, draw_stream(c, 400));  // a different seed must give a different stream
}

/// Test-local arrival process: replays a fixed script of (cycle, request)
/// arrivals, each at its cycle, counting the requests it has yielded.
class ScriptedSource final : public RequestSource {
 public:
  using Script = std::vector<std::pair<noc::Cycle, Request>>;
  explicit ScriptedSource(Script script) : script_(std::move(script)) {}

  void draw(noc::Cycle now, std::vector<Request>& out) override {
    for (const auto& [cycle, request] : script_) {
      if (cycle == now) {
        out.push_back(request);
        ++drawn_;
      }
    }
  }
  [[nodiscard]] std::int64_t drawn() const noexcept { return drawn_; }

 private:
  Script script_;
  std::int64_t drawn_ = 0;
};

/// 4x4 simulation harness with a workload built from a scripted source.
/// Most scripts hold one client, whose in-flight and drawn-but-unissued
/// request counts the harness reads off the workload and source counters.
struct Harness {
  static constexpr std::int32_t kSide = 4;
  traffic::Simulation sim;
  RequestReplyWorkload* wl = nullptr;
  ScriptedSource* source = nullptr;

  Harness(ScriptedSource::Script script, const RequestReplyConfig& cfg,
          std::vector<NodeId> servers = {0})
      : sim(noc::MeshConfig{MeshShape::square(kSide)}) {
    auto src = std::make_unique<ScriptedSource>(std::move(script));
    source = src.get();
    auto gen = std::make_unique<RequestReplyWorkload>(MeshShape::square(kSide), std::move(src),
                                                      std::move(servers), cfg);
    wl = gen.get();
    sim.add_generator(std::move(gen));
  }

  /// Requests issued whose reply has not come back (single-client scripts).
  [[nodiscard]] std::int64_t outstanding() const {
    return wl->stats().requests_issued - wl->stats().replies_completed;
  }
  /// Requests drawn but not yet issued (single-client scripts).
  [[nodiscard]] std::int64_t pending() const {
    return source->drawn() - wl->stats().requests_issued;
  }
};

ScriptedSource::Script burst_from(NodeId client, NodeId server, int count) {
  return ScriptedSource::Script(static_cast<std::size_t>(count), {0, Request{client, server}});
}

TEST(Endpoints, OpenLoopIssuesEveryDueRecordOnTheArrivalClock) {
  RequestReplyConfig cfg;
  cfg.open_loop = true;
  Harness h(burst_from(5, 0, 10), cfg);
  h.sim.step();  // all 10 requests arrive at cycle 0
  EXPECT_EQ(h.wl->stats().requests_issued, 10);
  EXPECT_EQ(h.wl->stats().issue_stall_cycles, 0);
}

TEST(Endpoints, ClosedLoopNeverExceedsTheOutstandingWindow) {
  RequestReplyConfig cfg;
  cfg.open_loop = false;
  cfg.window = 2;
  Harness h(burst_from(5, 0, 10), cfg);
  for (int i = 0; i < 2000 && h.wl->stats().replies_completed < 10; ++i) {
    h.sim.step();
    EXPECT_LE(h.outstanding(), 2);
  }
  EXPECT_EQ(h.wl->stats().requests_issued, 10);
  EXPECT_EQ(h.wl->stats().replies_completed, 10);
  EXPECT_EQ(h.outstanding(), 0);
  EXPECT_GT(h.wl->stats().issue_stall_cycles, 0);
}

TEST(Endpoints, ReplyIsInjectedExactlyServiceLatencyAfterDelivery) {
  RequestReplyConfig cfg;
  cfg.service_latency = 7;
  Harness h({{0, Request{5, 0}}}, cfg);

  noc::Cycle delivered = -1, reply_issued = -1;
  for (int i = 0; i < 200; ++i) {
    h.sim.step();
    if (delivered < 0 && h.wl->stats().requests_delivered == 1) delivered = h.sim.mesh().now() - 1;
    if (reply_issued < 0 && h.wl->stats().replies_issued == 1) {
      reply_issued = h.sim.mesh().now() - 1;
      break;
    }
  }
  ASSERT_GE(delivered, 0);
  ASSERT_GE(reply_issued, 0);
  // The reply becomes ready at delivered + service_latency; the generator
  // tick at the start of that cycle injects it.
  EXPECT_EQ(reply_issued, delivered + cfg.service_latency);

  for (int i = 0; i < 200 && h.wl->stats().replies_completed < 1; ++i) h.sim.step();
  EXPECT_EQ(h.wl->stats().replies_completed, 1);
  EXPECT_GT(h.wl->stats().reply_latency_max, cfg.service_latency);
  EXPECT_EQ(h.outstanding(), 0);
}

TEST(Endpoints, QuarantinedClientRequestsAreDroppedAtTheFence) {
  RequestReplyConfig cfg;
  cfg.open_loop = true;
  Harness h(burst_from(5, 0, 4), cfg);
  h.sim.mesh().set_quarantined(5, true);
  h.sim.run(50);
  EXPECT_EQ(h.wl->stats().requests_issued, 0);
  EXPECT_EQ(h.wl->stats().requests_dropped, 4);
  EXPECT_EQ(h.wl->stats().replies_completed, 0);
}

TEST(Endpoints, QuarantinedServerStallsItsDependents) {
  RequestReplyConfig cfg;
  cfg.window = 2;
  cfg.service_latency = 4;
  Harness h(burst_from(5, 0, 6), cfg);
  h.sim.mesh().set_quarantined(0, true);  // fence the memory tile (false fence)
  h.sim.run(400);
  // Requests reach the fenced server (quarantine gates injection, not
  // ejection) but every reply is dropped at its NI: the client's window
  // fills and it stalls forever — the visible cost of the false fence.
  EXPECT_EQ(h.wl->stats().requests_issued, 2);
  EXPECT_EQ(h.wl->stats().replies_dropped, 2);
  EXPECT_EQ(h.wl->stats().replies_completed, 0);
  EXPECT_EQ(h.outstanding(), 2);
  EXPECT_EQ(h.pending(), 4);
  EXPECT_GT(h.wl->stats().issue_stall_cycles, 0);
}

TEST(Endpoints, BackpressureCapsTheSourceQueue) {
  RequestReplyConfig cfg;
  cfg.window = 32;  // window slack so only the NI queue gates
  Harness h(burst_from(5, 0, 20), cfg);
  for (int i = 0; i < 1500 && h.wl->stats().replies_completed < 20; ++i) {
    h.sim.step();
    EXPECT_LE(h.sim.mesh().source_queue_length(5), kMaxNiQueue);
  }
  EXPECT_EQ(h.wl->stats().replies_completed, 20);
}

/// Stats comparison helper for the determinism checks.
void expect_same_stats(const WorkloadStats& a, const WorkloadStats& b) {
  EXPECT_EQ(a.requests_issued, b.requests_issued);
  EXPECT_EQ(a.requests_dropped, b.requests_dropped);
  EXPECT_EQ(a.requests_delivered, b.requests_delivered);
  EXPECT_EQ(a.replies_issued, b.replies_issued);
  EXPECT_EQ(a.replies_completed, b.replies_completed);
  EXPECT_EQ(a.issue_stall_cycles, b.issue_stall_cycles);
  EXPECT_EQ(a.reply_stall_cycles, b.reply_stall_cycles);
  EXPECT_EQ(a.reply_latency_sum, b.reply_latency_sum);  // exact: same fp order
  EXPECT_EQ(a.reply_latency_max, b.reply_latency_max);
}

TEST(Families, EveryFamilyRunsDeterministicallyAndMovesTraffic) {
  for (const TraceWorkloadKind kind : kAllTraceWorkloads) {
    WorkloadStats first;
    for (int rep = 0; rep < 2; ++rep) {
      traffic::Simulation sim(noc::MeshConfig{MeshShape::square(8)});
      auto* wl = sim.add_generator(make_trace_workload(kind, MeshShape::square(8), 99));
      auto* typed = dynamic_cast<RequestReplyWorkload*>(wl);
      ASSERT_NE(typed, nullptr);
      sim.run(4000);
      EXPECT_GT(typed->stats().requests_issued, 0) << to_string(kind);
      EXPECT_GT(typed->stats().replies_completed, 0) << to_string(kind);
      if (rep == 0) {
        first = typed->stats();
      } else {
        expect_same_stats(first, typed->stats());
      }
    }
  }
}

TEST(Families, NamesMatchTheRegistryConvention) {
  EXPECT_EQ(to_string(TraceWorkloadKind::TraceReplay), "trace-replay");
  EXPECT_EQ(to_string(TraceWorkloadKind::OpenLoopBurst), "openloop-burst");
  EXPECT_EQ(to_string(TraceWorkloadKind::MemHog), "memhog");
}

}  // namespace
}  // namespace dl2f::workload
