// The flat-storage datapath's moving parts: the FlitFifo VC buffer,
// router-config validation, worklist activation/deactivation, and the
// zero-steady-state-allocation contract of Mesh::step (driven through a
// traffic::Simulation with no generators, which steps exactly the mesh).
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/debug_hooks.hpp"
#include "noc/mesh.hpp"
#include "noc/router.hpp"
#include "traffic/simulation.hpp"

namespace dl2f::noc {
namespace {

Flit numbered_flit(std::int32_t seq) {
  Flit f;
  f.packet = 7;
  f.src = 0;
  f.dst = 1;
  f.seq = seq;
  return f;
}

TEST(FlitFifo, FifoOrderAcrossWraparoundOnBoundSlots) {
  // FlitFifo rings over router-owned slot arenas; FIFO order must survive
  // every wrap of the head index.
  Flit slots[8];
  FlitFifo fifo;
  fifo.bind(slots, 8);
  std::int32_t next_push = 0;
  std::int32_t next_pop = 0;
  for (int round = 0; round < 10; ++round) {
    while (fifo.size() < 8) fifo.push_back(numbered_flit(next_push++));
    for (int i = 0; i < 5; ++i) {
      ASSERT_FALSE(fifo.empty());
      EXPECT_EQ(fifo.front().seq, next_pop++);
      fifo.pop_front();
    }
  }
  while (!fifo.empty()) {
    EXPECT_EQ(fifo.front().seq, next_pop++);
    fifo.pop_front();
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(RouterConfig, RejectsDepthsBeyondMaxVcDepth) {
  const auto mesh = MeshShape::square(4);
  RouterConfig cfg;
  cfg.vc_depth = kMaxVcDepth + 1;
  EXPECT_THROW(Router(0, mesh, cfg), std::invalid_argument);
  cfg.vc_depth = 0;
  EXPECT_THROW(Router(0, mesh, cfg), std::invalid_argument);
  cfg.vc_depth = kMaxVcDepth;  // the boundary itself is valid
  EXPECT_NO_THROW(Router(0, mesh, cfg));
}

TEST(RouterConfig, RejectsVcCountsBeyondTheSlotMask) {
  const auto mesh = MeshShape::square(4);
  RouterConfig cfg;
  cfg.vcs_per_port = kMaxVcsPerPort + 1;
  EXPECT_THROW(Router(0, mesh, cfg), std::invalid_argument);
  cfg.vcs_per_port = 0;
  EXPECT_THROW(Router(0, mesh, cfg), std::invalid_argument);
  cfg.vcs_per_port = 3;  // slot indices split by shift, so only powers of two
  EXPECT_THROW(Router(0, mesh, cfg), std::invalid_argument);
  cfg.vcs_per_port = kMaxVcsPerPort;
  EXPECT_NO_THROW(Router(0, mesh, cfg));
}

TEST(MeshConfig, RejectsNonPositivePacketLength) {
  // A default packet length below 1 never serializes a tail flit, so the
  // mesh would stream body flits forever; the constructor refuses it.
  MeshConfig cfg;
  cfg.shape = MeshShape::square(4);
  cfg.packet_length_flits = 0;
  EXPECT_THROW(Mesh{cfg}, std::invalid_argument);
  cfg.packet_length_flits = -3;
  EXPECT_THROW(Mesh{cfg}, std::invalid_argument);
  cfg.packet_length_flits = 1;  // the boundary itself is valid
  EXPECT_NO_THROW(Mesh{cfg});
}

TEST(MeshWorklist, RefusesSerializationBeyondVcDepth) {
  // A 6-flit packet through depth-2 VCs: flow control must hold every VC
  // at <= vc_depth flits while the packet still arrives complete.
  MeshConfig cfg;
  cfg.shape = MeshShape::square(4);
  cfg.packet_length_flits = 6;
  cfg.router.vc_depth = 2;
  Mesh mesh(cfg);
  mesh.inject(0, 3);
  for (int c = 0; c < 64 && !mesh.drained(); ++c) {
    mesh.step();
    for (NodeId id = 0; id < cfg.shape.node_count(); ++id) {
      const Router& r = mesh.router(id);
      for (std::size_t p = 0; p < kNumPorts; ++p) {
        for (const auto& vc : r.input(static_cast<Direction>(p)).vcs) {
          EXPECT_LE(vc.buffer.size(), cfg.router.vc_depth);
        }
      }
    }
  }
  EXPECT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().flits_ejected(), 6);
  EXPECT_EQ(mesh.stats().packets_ejected(), 1);
}

TEST(MeshWorklist, RoutersReactivateAfterGoingIdle) {
  // Deactivation must not be sticky: traffic -> full drain -> traffic
  // again through the same routers.
  Mesh mesh(MeshConfig{MeshShape::square(4), RouterConfig{}, 5});
  for (int round = 0; round < 3; ++round) {
    mesh.inject(0, 15);
    mesh.inject(5, 10);
    std::int64_t spare = 1000;
    while (!mesh.drained() && spare-- > 0) mesh.step();
    ASSERT_TRUE(mesh.drained()) << "round " << round;
  }
  EXPECT_EQ(mesh.stats().packets_ejected(), 6);
  EXPECT_EQ(mesh.stats().flits_ejected(), 30);
}

TEST(MeshWorklist, SourceReactivatesAfterQuarantineFlush) {
  // A quarantine flush empties the source queue (the node leaves the
  // source worklist); release + re-inject must flow again.
  traffic::Simulation sim(MeshConfig{MeshShape::square(4), RouterConfig{}, 5});
  Mesh& mesh = sim.mesh();
  for (int i = 0; i < 8; ++i) mesh.inject(0, 15);
  sim.run(2);
  mesh.set_quarantined(0, true);
  std::int64_t spare = 1000;
  while (!mesh.drained() && spare-- > 0) mesh.step();
  ASSERT_TRUE(mesh.drained());

  mesh.set_quarantined(0, false);
  EXPECT_GE(mesh.inject(0, 15), 0);
  spare = 1000;
  while (!mesh.drained() && spare-- > 0) mesh.step();
  ASSERT_TRUE(mesh.drained());
  EXPECT_GT(mesh.stats().packets_ejected(), 1);
}

TEST(MeshWorklist, ActiveButEmptyVcResumesOnNextFlit) {
  // With 1-flit/cycle injection and a 1-hop route, the in-network VC
  // drains as fast as it fills: the router repeatedly goes buffered == 0
  // mid-packet (Active-but-empty VC) and must wake for every later flit.
  MeshConfig cfg;
  cfg.shape = MeshShape(1, 2);
  cfg.packet_length_flits = 8;
  Mesh mesh(cfg);
  mesh.inject(0, 1);
  std::int64_t spare = 200;
  while (!mesh.drained() && spare-- > 0) mesh.step();
  ASSERT_TRUE(mesh.drained());
  EXPECT_EQ(mesh.stats().flits_ejected(), 8);
  EXPECT_EQ(mesh.stats().packets_ejected(), 1);
}

TEST(MeshAllocation, SteadyStateStepIsAllocationFree) {
  // Load the mesh with a deep multi-node backlog, warm the arenas, then
  // assert that continued stepping — NI serialization, VA/SA/ST, link
  // crossings, ejections, stats, worklist churn — performs ZERO heap
  // allocations. (Injection itself may allocate in the source deques;
  // that happens outside Mesh::step by design.)
  //
  // The counter lives in common/debug_hooks.cpp (Debug-only operator-new
  // replacement); under NDEBUG the explicit count check is skipped, but
  // the NoAllocScopes inside Mesh::step's phases assert the same contract
  // live on every Debug/sanitize ctest run regardless of this test.
  MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  cfg.packet_length_flits = 5;
  traffic::Simulation sim(cfg);
  Mesh& mesh = sim.mesh();
  for (int i = 0; i < 250; ++i) {
    for (NodeId src = 0; src < 64; src += 3) {
      mesh.inject(src, (src * 31 + i) % 64);
    }
  }
  // The arenas are reserved at their physical per-cycle maxima in the
  // Mesh constructor, so stepping never allocates — not even while
  // congestion is still building toward its peak.
  sim.run(100);
  ASSERT_FALSE(mesh.drained());

  const std::int64_t before = dl2f::dbg::thread_allocation_count();
  sim.run(300);
  const std::int64_t after = dl2f::dbg::thread_allocation_count();
#ifndef NDEBUG
  EXPECT_EQ(after - before, 0) << "Mesh::step allocated in steady state";
#else
  EXPECT_EQ(before, -1);  // hooks compiled out; NoAllocScope covers Debug
  EXPECT_EQ(after, -1);
#endif
  EXPECT_GT(mesh.stats().flits_ejected(), 0);
}

TEST(MeshAllocation, ShardedSteadyStateStepIsAllocationFree) {
  // Same contract with the sharded engine actually engaged: 16 rows split
  // into 4 row-band shards, so the cross-shard staging arenas (arrivals /
  // credits to the previous/next band) are exercised every cycle. The
  // allocation counter is thread-local, so the coordinator must execute
  // every shard itself: step_threads = 1 keeps phase work on this thread
  // while leaving the shard partition and staging/apply order identical to
  // the pooled run (the bitwise-determinism contract).
  MeshConfig cfg;
  cfg.shape = MeshShape::square(16);
  cfg.packet_length_flits = 5;
  cfg.shards = 4;
  cfg.step_threads = 1;
  traffic::Simulation sim(cfg);
  Mesh& mesh = sim.mesh();
  ASSERT_EQ(mesh.shard_count(), 4);
  for (int i = 0; i < 250; ++i) {
    for (NodeId src = 0; src < 256; src += 5) {
      // Destinations spread over all four bands so every shard boundary
      // carries N/S traffic while the counter is armed.
      mesh.inject(src, (src * 37 + i * 11) % 256);
    }
  }
  sim.run(100);
  ASSERT_FALSE(mesh.drained());

  const std::int64_t before = dl2f::dbg::thread_allocation_count();
  sim.run(300);
  const std::int64_t after = dl2f::dbg::thread_allocation_count();
#ifndef NDEBUG
  EXPECT_EQ(after - before, 0) << "sharded Mesh::step allocated in steady state";
#else
  EXPECT_EQ(before, -1);
  EXPECT_EQ(after, -1);
#endif
  EXPECT_GT(mesh.stats().flits_ejected(), 0);
}

TEST(MeshAllocation, PooledStepIsAllocationFree) {
  // The pooled engine: 4 shards stepped by the caller and one pool thread.
  // The counter is thread-local, so this counts the caller's share of every
  // step — the pool dispatch, its half of the shards, the barrier and the
  // serial ejection phase; the pool thread's phases run under the
  // NoAllocScope in Mesh::step_shards.
  MeshConfig cfg;
  cfg.shape = MeshShape::square(16);
  cfg.packet_length_flits = 5;
  cfg.shards = 4;
  cfg.step_threads = 2;
  traffic::Simulation sim(cfg);
  Mesh& mesh = sim.mesh();
  ASSERT_EQ(mesh.shard_count(), 4);
  ASSERT_EQ(mesh.step_thread_count(), 2);
  for (int i = 0; i < 250; ++i) {
    for (NodeId src = 0; src < 256; src += 5) {
      mesh.inject(src, (src * 37 + i * 11) % 256);
    }
  }
  sim.run(100);
  ASSERT_FALSE(mesh.drained());

  const std::int64_t before = dl2f::dbg::thread_allocation_count();
  sim.run(300);
  const std::int64_t after = dl2f::dbg::thread_allocation_count();
#ifndef NDEBUG
  EXPECT_EQ(after - before, 0) << "pooled Mesh::step allocated in steady state";
#else
  EXPECT_EQ(before, -1);
  EXPECT_EQ(after, -1);
#endif
  EXPECT_GT(mesh.stats().flits_ejected(), 0);
}

}  // namespace
}  // namespace dl2f::noc
