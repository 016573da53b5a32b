// Fixture: the pool's own translation unit is the one place in src/ that
// may start threads and park them on condition variables.
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

class Pool {
 public:
  explicit Pool(int n) {
    for (int i = 0; i < n; ++i) threads_.emplace_back([] {});
  }
  ~Pool() {
    for (auto& t : threads_) t.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::vector<std::thread> threads_;
};
