// Fixture: asking how many cores there are starts no thread, yielding or
// naming the current thread parks nothing, and prose or strings that
// mention std::thread, std::async or std::condition_variable are not code.
#include <cstdint>
#include <string>
#include <thread>

std::int32_t cores() {
  return static_cast<std::int32_t>(std::thread::hardware_concurrency());
}

void spin() { std::this_thread::yield(); }

const std::string note = "std::thread and std::condition_variable live in worker_pool";
