#include "noc/mesh.hpp"

#include <gtest/gtest.h>

#include "traffic/simulation.hpp"

namespace dl2f::noc {
namespace {

// Tests that step the network do it through a traffic::Simulation with no
// generators, which steps exactly the mesh.
MeshConfig small_mesh(std::int32_t r = 4, std::int32_t pkt_len = 1) {
  MeshConfig cfg;
  cfg.shape = MeshShape::square(r);
  cfg.packet_length_flits = pkt_len;
  return cfg;
}

TEST(Mesh, StartsEmptyAndDrained) {
  Mesh mesh(small_mesh());
  EXPECT_EQ(mesh.now(), 0);
  EXPECT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.flits_in_network(), 0);
}

TEST(Mesh, SinglePacketReachesDestination) {
  traffic::Simulation sim(small_mesh());
  Mesh& mesh = sim.mesh();
  mesh.inject(0, 15);  // corner to corner: 6 hops
  sim.run(64);
  EXPECT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().packets_ejected(), 1);
  EXPECT_EQ(mesh.stats().flits_ejected(), 1);
}

TEST(Mesh, SelfPacketEjectsLocally) {
  traffic::Simulation sim(small_mesh());
  Mesh& mesh = sim.mesh();
  mesh.inject(5, 5);
  sim.run(10);
  EXPECT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().packets_ejected(), 1);
}

TEST(Mesh, PacketLatencyScalesWithDistance) {
  traffic::Simulation near_sim(small_mesh());
  near_sim.mesh().inject(5, 6);  // 1 hop
  near_sim.run(64);
  const double near_latency = near_sim.mesh().stats().avg_packet_latency();

  traffic::Simulation far_sim(small_mesh());
  far_sim.mesh().inject(0, 15);  // 6 hops
  far_sim.run(64);
  const double far_latency = far_sim.mesh().stats().avg_packet_latency();

  EXPECT_GT(far_latency, near_latency);
  EXPECT_GE(near_latency, 1.0);  // at least one link traversal
}

TEST(Mesh, MultiFlitPacketArrivesInOrderAndComplete) {
  traffic::Simulation sim(small_mesh(4, 5));
  Mesh& mesh = sim.mesh();
  mesh.inject(0, 3);
  sim.run(64);
  EXPECT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().flits_ejected(), 5);
  EXPECT_EQ(mesh.stats().packets_ejected(), 1);
}

TEST(Mesh, QueueLatencyGrowsWhenSourceBacklogged) {
  // Inject a burst at one node: later packets wait in the source queue.
  traffic::Simulation sim(small_mesh(4, 5));
  Mesh& mesh = sim.mesh();
  for (int i = 0; i < 10; ++i) mesh.inject(0, 15);
  sim.run(400);
  EXPECT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().packets_ejected(), 10);
  EXPECT_GT(mesh.stats().avg_packet_queue_latency(), 1.0);
  EXPECT_GT(mesh.max_source_queue_length(), 1U);
}

TEST(Mesh, TelemetryCountsFlitTraversals) {
  // A single 3-flit packet 0 -> 2 passes through router 1's West input:
  // 3 writes + 3 reads there.
  traffic::Simulation sim(small_mesh(4, 3));
  Mesh& mesh = sim.mesh();
  mesh.inject(0, 2);
  sim.run(64);
  const auto& t = mesh.router(1).input(Direction::West).telemetry;
  EXPECT_EQ(t.buffer_writes, 3);
  EXPECT_EQ(t.buffer_reads, 3);
  // Destination router 2 also sees them on its West input.
  EXPECT_EQ(mesh.router(2).input(Direction::West).telemetry.operations(), 6);
  // Unrelated router sees nothing.
  EXPECT_EQ(mesh.router(10).input(Direction::West).telemetry.operations(), 0);
}

TEST(Mesh, ResetTelemetryClearsCounters) {
  traffic::Simulation sim(small_mesh());
  Mesh& mesh = sim.mesh();
  mesh.inject(0, 2);
  sim.run(32);
  EXPECT_GT(mesh.router(1).input(Direction::West).telemetry.operations(), 0);
  mesh.reset_telemetry();
  EXPECT_EQ(mesh.router(1).input(Direction::West).telemetry.operations(), 0);
}

TEST(Mesh, XyRoutePathEndpoints) {
  const auto mesh = MeshShape::square(4);
  const auto path = xy_route_path(mesh, 0, 15);
  ASSERT_EQ(path.size(), 7U);  // 6 hops + origin
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 15);
  // X-first: 0 -> 1 -> 2 -> 3 -> 7 -> 11 -> 15.
  const std::vector<NodeId> expected{0, 1, 2, 3, 7, 11, 15};
  EXPECT_EQ(path, expected);
}

TEST(Mesh, XyRoutePathSingleNode) {
  const auto mesh = MeshShape::square(4);
  const auto path = xy_route_path(mesh, 6, 6);
  ASSERT_EQ(path.size(), 1U);
  EXPECT_EQ(path.front(), 6);
}

TEST(Mesh, MaliciousFlagPropagates) {
  traffic::Simulation sim(small_mesh());
  Mesh& mesh = sim.mesh();
  mesh.inject(0, 3, 1, /*malicious=*/true);
  // Telemetry doesn't expose flits directly; verify via drain + stats and
  // the source-side bookkeeping instead: the packet must complete.
  sim.run(32);
  EXPECT_EQ(mesh.stats().packets_ejected(), 1);
}

TEST(Mesh, InjectionBandwidthOneFlitPerCycle) {
  // A 5-flit packet needs at least 5 cycles to leave the source.
  traffic::Simulation sim(small_mesh(4, 5));
  Mesh& mesh = sim.mesh();
  mesh.inject(0, 1);
  sim.run(3);
  EXPECT_FALSE(mesh.drained());  // serialization still in progress
  sim.run(61);
  EXPECT_TRUE(mesh.drained());
}

TEST(Mesh, HeavyCrossTrafficEventuallyDeliversEverything) {
  traffic::Simulation sim(small_mesh(4, 5));
  Mesh& mesh = sim.mesh();
  // All nodes send to the opposite corner simultaneously (worst case).
  for (NodeId n = 0; n < 16; ++n) {
    if (n != 15) mesh.inject(n, 15);
  }
  sim.run(2000);
  EXPECT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().packets_ejected(), 15);
}

TEST(Mesh, StatsResetClearsAverages) {
  traffic::Simulation sim(small_mesh());
  Mesh& mesh = sim.mesh();
  mesh.inject(0, 3);
  sim.run(32);
  EXPECT_GT(mesh.stats().packets_ejected(), 0);
  mesh.stats().reset();
  EXPECT_EQ(mesh.stats().packets_ejected(), 0);
  EXPECT_DOUBLE_EQ(mesh.stats().avg_packet_latency(), 0.0);
}

TEST(Mesh, QuarantineRejectsNodesOutsideTheMesh) {
  // An operator fence on a node id past either end of the mesh must fail
  // loudly and fence nothing, in every build type.
  Mesh mesh(small_mesh());
  EXPECT_THROW(mesh.set_quarantined(mesh.shape().node_count(), true), std::invalid_argument);
  EXPECT_THROW(mesh.set_quarantined(-1, true), std::invalid_argument);
  EXPECT_TRUE(mesh.quarantined_nodes().empty());
}

TEST(Mesh, QuarantineDropsInjectionAtTheSourceAndReleases) {
  traffic::Simulation sim(small_mesh());
  Mesh& mesh = sim.mesh();
  mesh.set_quarantined(0, true);
  EXPECT_TRUE(mesh.quarantined(0));
  EXPECT_EQ(mesh.quarantined_nodes(), std::vector<NodeId>{0});

  EXPECT_EQ(mesh.inject(0, 5), -1);
  EXPECT_EQ(mesh.packets_dropped(), 1);
  sim.run(50);
  EXPECT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().packets_ejected(), 0);

  // Other nodes are unaffected; release restores injection.
  EXPECT_GE(mesh.inject(1, 5), 0);
  mesh.set_quarantined(0, false);
  EXPECT_GE(mesh.inject(0, 5), 0);
  sim.run(200);
  EXPECT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().packets_ejected(), 2);
}

TEST(Mesh, QuarantineFlushesTheQueuedBacklog) {
  traffic::Simulation sim(small_mesh(4, /*pkt_len=*/5));
  Mesh& mesh = sim.mesh();
  for (int i = 0; i < 10; ++i) mesh.inject(0, 3);
  sim.run(3);  // front packet is mid-serialization (3 of 5 flits sent)
  ASSERT_GT(mesh.source_queue_length(0), 1U);

  mesh.set_quarantined(0, true);
  // Everything behind the in-flight packet is dropped on the spot...
  EXPECT_EQ(mesh.packets_dropped(), 9);
  EXPECT_LE(mesh.source_queue_length(0), 1U);
  // ...and only the in-flight packet completes (its tail must release the
  // virtual channel), so the flood stops within one packet's worth.
  std::int64_t spare = 10000;
  while (!mesh.drained() && spare-- > 0) mesh.step();
  ASSERT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().packets_ejected(), 1);
}

TEST(LatencyHistogram, PercentilesFollowTheEjectedPackets) {
  Mesh mesh(small_mesh());
  for (int i = 0; i < 20; ++i) mesh.inject(0, 1);  // one hop, serialized queueing
  std::int64_t spare = 10000;
  while (!mesh.drained() && spare-- > 0) mesh.step();
  ASSERT_TRUE(mesh.drained());
  const auto& stats = mesh.stats();
  ASSERT_EQ(stats.packets_ejected(), 20);

  const auto percentile = [&](double q) {
    return histogram_percentile(stats.packet_latency_histogram(), q,
                                static_cast<double>(stats.window_max_packet_latency()));
  };
  const double p50 = percentile(0.5);
  const double p99 = percentile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p99, p50);
  // The histogram's mass matches the packet count.
  std::int64_t total = 0;
  for (const auto c : stats.packet_latency_histogram()) total += c;
  EXPECT_EQ(total, 20);
}

TEST(LatencyHistogram, PercentileOfEmptyHistogramIsZero) {
  EXPECT_DOUBLE_EQ(histogram_percentile(std::vector<std::int64_t>(16, 0), 0.5), 0.0);
}

TEST(LatencyHistogram, NearestRankIsExact) {
  // 20 samples with values 1..20 (one per bucket): the q-th percentile is
  // the ceil(20q)-th smallest. The old floor-based rank under-reported the
  // tail: p99 of 20 samples must be the maximum, not the 19th value.
  std::vector<std::int64_t> hist(32, 0);
  for (std::int64_t v = 1; v <= 20; ++v) hist[static_cast<std::size_t>(v)] = 1;
  EXPECT_DOUBLE_EQ(histogram_percentile(hist, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram_percentile(hist, 0.05), 1.0);   // rank ceil(1) = 1
  EXPECT_DOUBLE_EQ(histogram_percentile(hist, 0.5), 10.0);   // rank 10
  EXPECT_DOUBLE_EQ(histogram_percentile(hist, 0.75), 15.0);  // rank 15
  EXPECT_DOUBLE_EQ(histogram_percentile(hist, 0.99), 20.0);  // rank 20: the max
  EXPECT_DOUBLE_EQ(histogram_percentile(hist, 1.0), 20.0);
}

TEST(LatencyHistogram, OverflowBucketReportsSentinelNotClamp) {
  // All mass below the overflow bucket: percentiles are ordinary values.
  std::vector<std::int64_t> hist(16, 0);
  hist[3] = 10;
  EXPECT_DOUBLE_EQ(histogram_percentile(hist, 0.99), 3.0);

  // Mass straddling the clamp: the tail lands in the open-ended final
  // bucket, whose index is NOT a latency. Default: the -1 sentinel;
  // with a caller-provided true maximum: that maximum.
  hist[15] = 5;  // overflow bucket (real values were >= 15, unknown here)
  EXPECT_DOUBLE_EQ(histogram_percentile(hist, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(histogram_percentile(hist, 0.99), -1.0);
  EXPECT_DOUBLE_EQ(histogram_percentile(hist, 0.99, /*overflow=*/412.0), 412.0);
}

TEST(LatencyHistogram, StatsReportTrueMaxBeyondBucketRange) {
  // Packets whose latency saturates the 2048-bucket histogram must report
  // the exact observed maximum from the tail percentiles, not the clamp
  // (the DefenseRuntime's windowed p50/p99 path).
  LatencyStats stats;
  const auto percentile = [&](double q) {
    return histogram_percentile(stats.packet_latency_histogram(), q,
                                static_cast<double>(stats.window_max_packet_latency()));
  };
  Flit tail;
  tail.type = FlitType::HeadTail;
  for (int i = 0; i < 10; ++i) {
    tail.created = 0;
    tail.injected = 0;
    stats.on_packet_ejected(tail, /*now=*/100);  // latency 100
  }
  tail.created = 0;
  stats.on_packet_ejected(tail, /*now=*/5000);  // latency 5000: clamps
  EXPECT_EQ(stats.window_max_packet_latency(), 5000);
  EXPECT_DOUBLE_EQ(percentile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(percentile(0.99), 5000.0);

  stats.reset();
  EXPECT_EQ(stats.window_max_packet_latency(), 0);
}

TEST(LatencyHistogram, WindowMaxResetsAtEachWindow) {
  // Windowed (delta-histogram) percentiles need the max of *this* window:
  // an extreme from an earlier window must not leak into a later window's
  // overflow substitute.
  LatencyStats stats;
  Flit tail;
  tail.type = FlitType::HeadTail;
  tail.created = 0;
  tail.injected = 0;
  stats.on_packet_ejected(tail, /*now=*/80000);  // early spike
  EXPECT_EQ(stats.window_max_packet_latency(), 80000);
  stats.reset_window_max();

  stats.on_packet_ejected(tail, /*now=*/2100);  // later, milder window
  EXPECT_EQ(stats.window_max_packet_latency(), 2100);
}

}  // namespace
}  // namespace dl2f::noc
