// The one place the library starts threads (determinism-lint rule DL007).
// CNN training, sharded mesh stepping and campaign grids all run on this
// pool and keep their byte-identical-at-any-thread-count contracts the
// same way: a task writes only its own slots, and reductions run on the
// caller afterwards in a fixed order.
//
// Participant 0 is the calling thread; participants 1..N are pool threads
// parked on a generation-counter start latch, so participant p is the same
// thread on every run. Dispatch passes the task as a pointer plus a
// function-pointer trampoline and allocates nothing, so Mesh::step can
// dispatch every cycle.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dl2f::common {

class WorkerPool {
 public:
  /// Start `extra_threads` pool threads (none when <= 0).
  explicit WorkerPool(std::int32_t extra_threads);
  ~WorkerPool();  ///< stops and joins every pool thread
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  WorkerPool(WorkerPool&&) = delete;
  WorkerPool& operator=(WorkerPool&&) = delete;

  /// Pool threads plus the caller.
  [[nodiscard]] std::int32_t participants() const noexcept {
    return static_cast<std::int32_t>(threads_.size()) + 1;
  }

  /// Call fn(p) once for every participant p in [0, participants()) and
  /// return when every call has returned; with no pool threads, just
  /// fn(0). If calls throw, the caller's exception (else the first pool
  /// thread's) is rethrown after all calls returned. Runs must not overlap
  /// or nest: call run() from one thread, never from inside a task.
  template <typename Fn>
  void run(Fn&& fn) {
    if (threads_.empty()) {
      fn(std::int32_t{0});
      return;
    }
    using Task = std::remove_reference_t<Fn>;
    dispatch(const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
             [](void* task, std::int32_t p) noexcept -> std::exception_ptr {
               try {
                 (*static_cast<Task*>(task))(p);
               } catch (...) {
                 return std::current_exception();
               }
               return nullptr;
             });
  }

  /// Inside run(): wait until every participant has reached this barrier,
  /// with every write before it visible to all after it. Each participant
  /// must call it equally often. Returns at once with no pool threads.
  void barrier() noexcept;

 private:
  /// Calls the task as one participant and returns what it threw.
  using Trampoline = std::exception_ptr (*)(void* task, std::int32_t participant) noexcept;

  void dispatch(void* task, Trampoline call);
  void worker_loop(std::int32_t participant);
  void stop_and_join() noexcept;

  // Start latch and completion count, guarded by mutex_.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  void* task_ = nullptr;
  Trampoline call_ = nullptr;
  std::uint64_t generation_ = 0;
  std::int32_t done_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;

  // Spin barrier: the last arriver resets the count and bumps the generation.
  std::atomic<std::int32_t> barrier_arrived_{0};
  std::atomic<std::uint64_t> barrier_gen_{0};

  std::vector<std::thread> threads_;  ///< last: its threads use every member above
};

}  // namespace dl2f::common
