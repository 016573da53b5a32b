// Trace-driven request/reply workload subsystem: trace parse/round-trip
// and the line-numbered error path, open- vs closed-loop injection
// accounting, reply-after-service-latency timing, backpressure/quarantine
// stalls, and determinism of the generator-backed families.
#include "workload/endpoint.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "traffic/simulation.hpp"
#include "workload/families.hpp"
#include "workload/trace.hpp"

namespace dl2f::workload {
namespace {

std::vector<TraceRecord> sample_records() {
  return {
      {0, 5, 0, TraceKind::Request, 1},
      {0, 6, 3, TraceKind::Request, 2},
      {4, 9, 0, TraceKind::Reply, 5},
      {12, 5, 12, TraceKind::Request, 1},
  };
}

TEST(TraceFormat, WriteThenParseRoundTripsExactly) {
  const auto records = sample_records();
  std::stringstream ss;
  write_trace(ss, records);
  const auto parsed = parse_trace(ss);
  EXPECT_EQ(parsed, records);
}

TEST(TraceFormat, HeaderIsRequired) {
  std::istringstream in("0 1 2 REQ 1\n");
  try {
    (void)parse_trace(in);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("header"), std::string::npos) << e.what();
  }
}

/// Every malformed line is rejected with its 1-based line number.
TEST(TraceFormat, MalformedLinesAreRejectedWithLineNumbers) {
  const struct {
    const char* body;
    const char* expect;  ///< substring of the thrown message
  } cases[] = {
      {"0 1 2 REQ\n", "line 3"},              // too few fields
      {"0 1 2 REQ 1 9\n", "trailing field"},  // too many fields
      {"x 1 2 REQ 1\n", "integer for cycle"},
      {"0 1 2 PUT 1\n", "unknown kind"},
      {"0 1 2 REQ 0\n", "size"},
      {"0 1 1 REQ 1\n", "src == dst"},
      {"-3 1 2 REQ 1\n", "negative cycle"},
      {"9 1 2 REQ 1\n5 2 3 REQ 1\n", "out of order"},
      {"0 99 2 REQ 1\n", "outside the mesh"},
      // Out-of-int32 values must not wrap into valid ones (each narrows to 1).
      {"0 4294967297 2 REQ 5\n", "out of 32-bit range"},
      {"0 -4294967295 2 REQ 5\n", "out of 32-bit range"},
      {"0 1 2 REQ 4294967297\n", "out of 32-bit range"},
  };
  const MeshShape mesh = MeshShape::square(4);
  for (const auto& c : cases) {
    std::istringstream in(std::string(kTraceHeaderV1) + "\n# comment\n" + c.body);
    try {
      (void)parse_trace(in, &mesh);
      FAIL() << "accepted malformed body: " << c.body;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("trace line "), std::string::npos) << what;
      EXPECT_NE(what.find(c.expect), std::string::npos) << what;
    }
  }
}

TEST(TraceFormat, CommentsAndBlankLinesAreIgnored) {
  std::istringstream in("# leading comment\n\ndl2f-trace v1\n\n# mid comment\n0 1 2 REQ 1\n");
  const auto parsed = parse_trace(in);
  ASSERT_EQ(parsed.size(), 1U);
  EXPECT_EQ(parsed[0], (TraceRecord{0, 1, 2, TraceKind::Request, 1}));
}

TEST(VectorSource, LoopShiftsEachPassByThePeriod) {
  VectorTraceSource src({{0, 1, 2, TraceKind::Request, 1}, {5, 2, 3, TraceKind::Request, 1}},
                        /*loop_period=*/10);
  TraceRecord r;
  std::vector<noc::Cycle> cycles;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(src.next(r));
    cycles.push_back(r.cycle);
  }
  EXPECT_EQ(cycles, (std::vector<noc::Cycle>{0, 5, 10, 15, 20, 25}));
}

TEST(GeneratedSources, SameSeedSameStream) {
  BurstyTraceSource::Config cfg;
  cfg.mesh = MeshShape::square(8);
  cfg.servers = corner_servers(cfg.mesh);
  BurstyTraceSource a(cfg, 42), b(cfg, 42), c(cfg, 43);
  bool diverged = false;
  for (int i = 0; i < 50; ++i) {
    TraceRecord ra, rb, rc;
    ASSERT_TRUE(a.next(ra));
    ASSERT_TRUE(b.next(rb));
    ASSERT_TRUE(c.next(rc));
    EXPECT_EQ(ra, rb);
    if (!(rc == ra)) diverged = true;
  }
  EXPECT_TRUE(diverged);  // a different seed must give a different stream
}

/// 4x4 simulation harness with a workload built from explicit records.
struct Harness {
  static constexpr std::int32_t kSide = 4;
  traffic::Simulation sim;
  RequestReplyWorkload* wl = nullptr;

  Harness(std::vector<TraceRecord> records, const RequestReplyConfig& cfg,
          std::vector<NodeId> servers = {0})
      : sim(noc::MeshConfig{MeshShape::square(kSide)}) {
    auto gen = std::make_unique<RequestReplyWorkload>(
        MeshShape::square(kSide), std::make_unique<VectorTraceSource>(std::move(records)),
        std::move(servers), cfg);
    wl = gen.get();
    sim.add_generator(std::move(gen));
  }
};

std::vector<TraceRecord> burst_from(NodeId client, NodeId server, int count) {
  std::vector<TraceRecord> records;
  for (int i = 0; i < count; ++i) records.push_back({0, client, server, TraceKind::Request, 1});
  return records;
}

TEST(Endpoints, OpenLoopIssuesEveryDueRecordOnTheArrivalClock) {
  RequestReplyConfig cfg;
  cfg.open_loop = true;
  Harness h(burst_from(5, 0, 10), cfg);
  h.sim.step();  // all 10 records are due at cycle 0
  EXPECT_EQ(h.wl->stats().requests_issued, 10);
  EXPECT_EQ(h.wl->stats().issue_stall_cycles, 0);
}

TEST(Endpoints, ClosedLoopNeverExceedsTheOutstandingWindow) {
  RequestReplyConfig cfg;
  cfg.open_loop = false;
  cfg.window = 2;
  cfg.max_ni_queue = 8;
  Harness h(burst_from(5, 0, 10), cfg);
  for (int i = 0; i < 2000 && h.wl->stats().replies_completed < 10; ++i) {
    h.sim.step();
    EXPECT_LE(h.wl->outstanding(5), 2);
  }
  EXPECT_EQ(h.wl->stats().requests_issued, 10);
  EXPECT_EQ(h.wl->stats().replies_completed, 10);
  EXPECT_EQ(h.wl->outstanding(5), 0);
  EXPECT_GT(h.wl->stats().issue_stall_cycles, 0);
}

TEST(Endpoints, ReplyIsInjectedExactlyServiceLatencyAfterDelivery) {
  RequestReplyConfig cfg;
  cfg.service_latency = 7;
  Harness h({{0, 5, 0, TraceKind::Request, 1}}, cfg);

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
  EXPECT_EQ(h.wl->outstanding(5), 0);
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
  EXPECT_EQ(h.wl->outstanding(5), 2);
  EXPECT_EQ(h.wl->pending_requests(5), 4U);
  EXPECT_GT(h.wl->stats().issue_stall_cycles, 0);
}

TEST(Endpoints, BackpressureCapsTheSourceQueue) {
  RequestReplyConfig cfg;
  cfg.window = 32;  // window slack so only the NI queue gates
  cfg.max_ni_queue = 2;
  Harness h(burst_from(5, 0, 20), cfg);
  for (int i = 0; i < 1500 && h.wl->stats().replies_completed < 20; ++i) {
    h.sim.step();
    EXPECT_LE(h.sim.mesh().source_queue_length(5), 2U);
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
