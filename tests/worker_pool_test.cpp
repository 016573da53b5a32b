// common::WorkerPool, the library's one thread pool: every participant
// runs once per run on a fixed thread (participant 0 on the caller),
// barrier() separates phases, a pool with no extra threads runs inline, an
// exception reaches the caller only after every participant has returned,
// and dispatching allocates nothing.
#include "common/worker_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/debug_hooks.hpp"

namespace dl2f::common {
namespace {

TEST(WorkerPool, EveryParticipantRunsOncePerRunOnAFixedThread) {
  WorkerPool pool(3);
  ASSERT_EQ(pool.participants(), 4);
  std::vector<std::int32_t> hits(4, 0);
  std::vector<std::thread::id> thread_of(4);
  std::vector<std::int32_t> moved(4, 0);
  std::int32_t bad_runs = 0;
  for (std::int32_t run = 0; run < 1000; ++run) {
    std::fill(hits.begin(), hits.end(), 0);
    pool.run([&](std::int32_t p) {
      const auto i = static_cast<std::size_t>(p);
      ++hits[i];
      if (run == 0) thread_of[i] = std::this_thread::get_id();
      if (std::this_thread::get_id() != thread_of[i]) ++moved[i];
    });
    if (hits != std::vector<std::int32_t>(4, 1)) ++bad_runs;
  }
  EXPECT_EQ(bad_runs, 0);
  EXPECT_EQ(thread_of[0], std::this_thread::get_id());
  EXPECT_EQ(moved, std::vector<std::int32_t>(4, 0));
}

TEST(WorkerPool, BarrierSeparatesPhases) {
  // Each phase writes only its own slot, meets the barrier, then reads
  // every slot: a barrier that let anyone through early shows up as a
  // slot still holding the previous phase's value. Two barriers per run
  // also cover reuse within one run.
  WorkerPool pool(3);
  std::vector<std::int32_t> slot(4, -1);
  std::vector<std::int32_t> mismatches(4, 0);
  for (std::int32_t run = 0; run < 500; ++run) {
    pool.run([&](std::int32_t p) {
      const auto i = static_cast<std::size_t>(p);
      for (const std::int32_t phase : {2 * run, 2 * run + 1}) {
        slot[i] = phase;
        pool.barrier();
        for (const std::int32_t v : slot) mismatches[i] += v != phase ? 1 : 0;
        pool.barrier();
      }
    });
  }
  EXPECT_EQ(mismatches, std::vector<std::int32_t>(4, 0));
}

TEST(WorkerPool, NoExtraThreadsRunsInline) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.participants(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::int32_t calls = 0;
  pool.run([&](std::int32_t p) {
    EXPECT_EQ(p, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    pool.barrier();  // nobody else to wait for: returns at once
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(WorkerPool(-3).participants(), 1);
}

TEST(WorkerPool, ExceptionReachesTheCallerAfterEveryParticipantReturned) {
  WorkerPool pool(2);
  for (const std::int32_t thrower : {0, 2}) {
    std::atomic<std::int32_t> returned{0};
    const auto task = [&](std::int32_t p) {
      if (p == thrower) throw std::runtime_error("participant failed");
      std::this_thread::yield();
      returned.fetch_add(1);
    };
    EXPECT_THROW(pool.run(task), std::runtime_error) << "thrower " << thrower;
    EXPECT_EQ(returned.load(), 2) << "thrower " << thrower;
  }
  std::atomic<std::int32_t> calls{0};
  pool.run([&](std::int32_t /*p*/) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3);  // the pool stays usable
}

TEST(WorkerPool, DispatchIsAllocationFree) {
  // The counter is thread-local and Debug-only (common/debug_hooks.hpp):
  // it counts the caller's dispatch, its own call, the barrier and the
  // completion wait.
  WorkerPool pool(2);
  std::vector<std::int32_t> hits(3, 0);
  const auto task = [&](std::int32_t p) {
    ++hits[static_cast<std::size_t>(p)];
    pool.barrier();
  };
  pool.run(task);  // first wake of every pool thread
  const std::int64_t before = dbg::thread_allocation_count();
  for (std::int32_t run = 0; run < 100; ++run) pool.run(task);
  const std::int64_t after = dbg::thread_allocation_count();
#ifndef NDEBUG
  EXPECT_EQ(after - before, 0) << "WorkerPool::run allocated";
#else
  EXPECT_EQ(before, -1);
  EXPECT_EQ(after, -1);
#endif
  EXPECT_EQ(hits, std::vector<std::int32_t>(3, 101));
}

}  // namespace
}  // namespace dl2f::common
