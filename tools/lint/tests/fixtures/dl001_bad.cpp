// Fixture: every banned nondeterminism source DL001 must catch.
#include <chrono>
#include <cstdlib>
#include <random>

int bad_entropy() {
  std::random_device rd;                       // finding: random_device
  return static_cast<int>(rd()) + std::rand();  // finding: std::rand
}

long bad_clock() {
  const auto t = std::chrono::steady_clock::now();  // finding: ::now(
  return t.time_since_epoch().count();
}

const char* bad_env() {
  return std::getenv("DL2F_SECRET_KNOB");  // finding: getenv
}

unsigned long bad_std_random(unsigned long seed) {
  std::mt19937_64 engine(seed);  // finding: std engine (draw through dl2f::Rng)
  return std::uniform_int_distribution<unsigned long>(0, 9)(engine);  // finding: std distribution
}
