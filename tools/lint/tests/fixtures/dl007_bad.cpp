// Fixture: a second thread mechanism outside common::WorkerPool — every
// thread-starting or thread-parking primitive is a finding.
#include <condition_variable>
#include <future>
#include <pthread.h>
#include <thread>
#include <vector>

std::vector<std::thread> pool;             // finding: std::thread object
std::jthread background;                   // finding: std::jthread
std::condition_variable wake;              // finding: condition variable
std::condition_variable_any wake_any;      // finding: condition variable (any)

void* task(void*) { return nullptr; }

int launch() {
  auto f = std::async([] { return 1; });   // finding: std::async
  pthread_t t;
  pthread_create(&t, nullptr, task, nullptr);  // finding: pthread_create
  return f.get();
}
