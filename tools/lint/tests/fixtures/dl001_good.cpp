// Fixture: mentions of banned names in comments and strings are fine,
// and seeded RNG use is the sanctioned pattern.
#include <cstdint>

// std::rand and random_device are banned; std::chrono::steady_clock::now()
// and std::mt19937_64 / std::normal_distribution too — this comment must
// not trip DL001.
const char* kDoc = "never call getenv or std::rand in src/";

struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return state = state * 6364136223846793005ULL + 1; }
};

std::uint64_t sanctioned(std::uint64_t seed) {
  Rng rng{seed};
  return rng.next();  // deterministic: pure function of the seed
}
