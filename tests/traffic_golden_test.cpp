// Per-generator stream goldens: every traffic source's random stream,
// pinned through what it injects.
//
// noc_golden_test pins the router datapath under UniformRandom + a static
// flood. This test pins the random streams of every other source — the
// STP patterns, the PARSEC phase machines, the trace-driven request/reply
// endpoints and the pulsed, ramped, colluding and mimicry attackers — so a
// change to the random engine or to Rng::bernoulli that shifts a single
// draw fails here, not only through a trained-weight hash much later.
//
// Each case runs 2000 cycles on an 8x8 mesh: every registered scenario
// family, at its own schedule constants, over UniformRandom, and "static"
// over every benchmark. Attacks start at cycle 500 and every attacker is
// fenced at cycle 1500, so the fenced generators keep drawing while their
// packets are dropped. The attack span [500, 1500) holds transient's
// first burst, victim-sweep's first leg, the first quarter of ramp's climb
// and the first fifth of stealth-ramp's, and six pulse periods. One
// FNV-1a value per case folds
//   * each node's injection demand (Mesh::ni_injected_flits), every cycle;
//   * packets_dropped() at the end of the run;
//   * after a drain, the stats()/benign_stats() ejection counts and
//     latency sums, as raw bits.
// The expected values were captured from the std::mt19937_64-backed Rng.
// To re-capture (only legitimate when a *case* changes, never for an
// engine change), run with DL2F_PRINT_GOLDEN=1 and paste the printed rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "monitor/benchmark.hpp"
#include "runtime/scenario.hpp"
#include "traffic/simulation.hpp"

namespace dl2f {
namespace {

constexpr noc::Cycle kCycles = 2000;
constexpr noc::Cycle kFenceAt = 1500;

struct Golden {
  const char* family;
  const char* benign;
  std::uint64_t hash;
};

// clang-format off
constexpr Golden kGoldens[] = {
    {"colluding", "Uniform Random", 0xf17dcc618340a380ULL},
    {"mimicry", "Uniform Random", 0x0aab7365db3f15b3ULL},
    {"multi-victim", "Uniform Random", 0xc281b739f5de6db3ULL},
    {"pulse", "Uniform Random", 0x231173832cf40551ULL},
    {"ramp", "Uniform Random", 0xf45df3491ec14b81ULL},
    {"static", "Uniform Random", 0x2169aa7226597eefULL},
    {"stealth-ramp", "Uniform Random", 0xfe3bc7df17245597ULL},
    {"transient", "Uniform Random", 0x9ac1319df685c903ULL},
    {"victim-sweep", "Uniform Random", 0x0d469f0e621d3b91ULL},
    {"static", "Tornado", 0xf3b62ce0a06b8a59ULL},
    {"static", "Shuffle", 0xdae517350da74512ULL},
    {"static", "Neighbor", 0xa870637778748cf7ULL},
    {"static", "Bit Rotation", 0x8a737e2a1784c434ULL},
    {"static", "Bit Complement", 0x2e9d5af224df8ebbULL},
    {"static", "Blackscholes", 0xffba46ba79724dc6ULL},
    {"static", "Bodytrack", 0xa177d1bfeccb7508ULL},
    {"static", "X264", 0x18ff1549b32154e7ULL},
    {"static", "trace-replay", 0x451ea554a14d77c5ULL},
    {"static", "openloop-burst", 0x433286899a11ec74ULL},
    {"static", "memhog", 0x893d4435d7121bddULL},
};
// clang-format on

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fold_stats(std::uint64_t h, const noc::LatencyStats& s) {
  h = fold(h, static_cast<std::uint64_t>(s.flits_ejected()));
  h = fold(h, static_cast<std::uint64_t>(s.packets_ejected()));
  h = fold(h, std::bit_cast<std::uint64_t>(s.avg_flit_queue_latency()));
  h = fold(h, std::bit_cast<std::uint64_t>(s.avg_flit_latency()));
  h = fold(h, std::bit_cast<std::uint64_t>(s.avg_packet_queue_latency()));
  return fold(h, std::bit_cast<std::uint64_t>(s.packet_latency_sum()));
}

std::uint64_t run_case(const std::string& family, const monitor::Benchmark& benign) {
  runtime::ScenarioParams params;
  params.mesh = MeshShape::square(8);
  params.benign = benign;
  params.attack_start = 500;
  const std::uint64_t seed = fnv1a(family) ^ mix64(fnv1a(benign.name()));
  auto scenario = runtime::ScenarioRegistry::instance().make(family, params, seed);
  EXPECT_NE(scenario, nullptr) << family;
  if (scenario == nullptr) return 0;

  noc::MeshConfig cfg;
  cfg.shape = params.mesh;
  cfg.step_threads = 1;
  traffic::Simulation sim(cfg);
  scenario->install(sim, mix64(seed));
  noc::Mesh& mesh = sim.mesh();

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (noc::Cycle t = 0; t < kCycles; ++t) {
    if (t == kFenceAt) {
      for (const NodeId a : scenario->all_attackers()) mesh.set_quarantined(a, true);
    }
    scenario->on_cycle(t);
    sim.step();
    for (NodeId n = 0; n < params.mesh.node_count(); ++n) {
      h = fold(h, static_cast<std::uint64_t>(mesh.ni_injected_flits(n)));
    }
    mesh.reset_ni_injection();
  }
  h = fold(h, static_cast<std::uint64_t>(mesh.packets_dropped()));
  sim.run_drain(50000);
  EXPECT_TRUE(mesh.drained()) << family << " over " << benign.name();
  h = fold_stats(h, mesh.stats());
  return fold_stats(h, mesh.benign_stats());
}

/// Every family over UniformRandom in name order, then "static" over
/// every other benchmark (the paper's nine, then the three trace workloads).
std::vector<std::pair<std::string, monitor::Benchmark>> cases() {
  const monitor::Benchmark uniform{traffic::SyntheticPattern::UniformRandom};
  std::vector<std::pair<std::string, monitor::Benchmark>> out;
  auto families = runtime::all_scenario_families();
  std::sort(families.begin(), families.end());
  for (const auto& family : families) {
    out.emplace_back(family, uniform);
  }
  auto benigns = monitor::all_benchmarks();
  for (const auto& b : monitor::trace_benchmarks()) benigns.push_back(b);
  for (const auto& b : benigns) {
    if (b.name() != uniform.name()) out.emplace_back("static", b);
  }
  return out;
}

TEST(TrafficGolden, EveryGeneratorStreamMatchesItsGolden) {
  const auto all = cases();
  if (std::getenv("DL2F_PRINT_GOLDEN") != nullptr) {
    for (const auto& [family, benign] : all) {
      std::printf("    {\"%s\", \"%s\", 0x%016llxULL},\n", family.c_str(), benign.name().c_str(),
                  static_cast<unsigned long long>(run_case(family, benign)));
    }
    return;
  }
  ASSERT_EQ(all.size(), std::size(kGoldens));
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& [family, benign] = all[i];
    ASSERT_EQ(family, kGoldens[i].family);
    ASSERT_EQ(benign.name(), kGoldens[i].benign);
    EXPECT_EQ(run_case(family, benign), kGoldens[i].hash) << family << " over " << benign.name();
  }
}

}  // namespace
}  // namespace dl2f
