#include "common/worker_pool.hpp"

namespace dl2f::common {

WorkerPool::WorkerPool(std::int32_t extra_threads) {
  try {
    for (std::int32_t t = 1; t <= extra_threads; ++t) {
      threads_.emplace_back([this, t] { worker_loop(t); });
    }
  } catch (...) {
    stop_and_join();  // a thread that failed to start must not strand the others
    throw;
  }
}

WorkerPool::~WorkerPool() { stop_and_join(); }

void WorkerPool::stop_and_join() noexcept {
  {
    const std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::dispatch(void* task, Trampoline call) {
  {
    const std::scoped_lock lock(mutex_);
    task_ = task;
    call_ = call;
    done_ = 0;
    error_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();
  std::exception_ptr error = call(task, 0);
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [&] { return done_ == static_cast<std::int32_t>(threads_.size()); });
  if (error == nullptr) error = error_;
  lock.unlock();
  if (error != nullptr) std::rethrow_exception(error);
}

void WorkerPool::barrier() noexcept {
  if (threads_.empty()) return;
  // The acq_rel arrival and the release/acquire generation pair publish
  // every pre-barrier write to every post-barrier reader.
  const std::uint64_t gen = barrier_gen_.load(std::memory_order_acquire);
  if (barrier_arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants()) {
    barrier_arrived_.store(0, std::memory_order_relaxed);
    barrier_gen_.store(gen + 1, std::memory_order_release);
  } else {
    while (barrier_gen_.load(std::memory_order_acquire) == gen) {
      std::this_thread::yield();
    }
  }
}

void WorkerPool::worker_loop(std::int32_t participant) {
  std::uint64_t seen = 0;
  for (;;) {
    void* task = nullptr;
    Trampoline call = nullptr;
    {
      std::unique_lock lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = task_;
      call = call_;
    }
    std::exception_ptr error = call(task, participant);
    {
      const std::scoped_lock lock(mutex_);
      if (error_ == nullptr) error_ = std::move(error);
      ++done_;
    }
    done_cv_.notify_one();
  }
}

}  // namespace dl2f::common
