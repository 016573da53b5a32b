#include "traffic/fdos.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace dl2f::traffic {
namespace {

/// Throws std::invalid_argument naming `who` unless `fir` is in [0, 1] (NaN
/// too), which the Bernoulli trial would otherwise clamp silently.
void check_fir(double fir, const char* who) {
  if (!(fir >= 0.0 && fir <= 1.0)) {
    throw std::invalid_argument(std::string(who) + ": fir must be in [0, 1], got " +
                                std::to_string(fir));
  }
}

}  // namespace

std::vector<NodeId> AttackScenario::ground_truth_victims(const MeshShape& mesh) const {
  std::vector<NodeId> victims;
  for (NodeId a : attackers) {
    const auto path = noc::xy_route_path(mesh, a, victim);
    // Attacker's own node is the source, not a victim; everything it
    // transits (routing-path victims) plus the target victim counts.
    for (std::size_t i = 1; i < path.size(); ++i) victims.push_back(path[i]);
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  return victims;
}

std::vector<std::pair<NodeId, Direction>> AttackScenario::ground_truth_ports(
    const MeshShape& mesh) const {
  std::vector<std::pair<NodeId, Direction>> ports;
  for (NodeId a : attackers) {
    const auto path = noc::xy_route_path(mesh, a, victim);
    // A flit moving from path[i] to path[i+1] leaves through the direction
    // of travel and enters path[i+1] on the opposite-facing input port.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const Direction travel = xy_route_step(mesh, path[i], path[i + 1]);
      ports.emplace_back(path[i + 1], opposite(travel));
    }
  }
  std::sort(ports.begin(), ports.end());
  ports.erase(std::unique(ports.begin(), ports.end()), ports.end());
  return ports;
}

FloodingAttack::FloodingAttack(AttackScenario scenario, std::uint64_t seed,
                               std::optional<SyntheticPattern> mimic)
    : scenario_(std::move(scenario)), fir_(scenario_.fir), mimic_(mimic), rng_(seed) {
  assert(scenario_.victim >= 0);
  if (scenario_.attackers.empty()) {
    throw std::invalid_argument("FloodingAttack: the scenario has no attackers");
  }
  check_fir(scenario_.fir, "FloodingAttack");
}

void FloodingAttack::tick(noc::Mesh& mesh) {
  if (!active_) return;
  for (NodeId attacker : scenario_.attackers) {
    if (!rng_.bernoulli(fir_)) continue;
    // Flooding packets are single-flit request/acknowledge packets
    // ("unlimited requests or acknowledges", §2.3): FIR is then the
    // fraction of the attacker's 1-flit/cycle injection bandwidth spent
    // on flooding, so FIR < 1 is sustainable and FIR = 1 saturates the
    // injection port outright.
    const NodeId dst =
        mimic_ ? pattern_destination(*mimic_, mesh.shape(), attacker, rng_) : scenario_.victim;
    // Perfect mimicry includes mimicking what the workload does NOT send.
    if (mimic_ && dst == attacker) continue;
    mesh.inject(attacker, dst, /*length_flits=*/1, /*malicious=*/true);
  }
}

std::vector<AttackScenario> make_scenarios(const MeshShape& mesh, std::int32_t count,
                                           std::int32_t num_attackers, double fir,
                                           std::uint64_t seed) {
  // An attacker-less scenario would flood nothing while reporting the attack on.
  if (num_attackers < 1) {
    throw std::invalid_argument("make_scenarios: num_attackers must be >= 1, got " +
                                std::to_string(num_attackers));
  }
  check_fir(fir, "make_scenarios");
  Rng rng(seed);
  std::vector<AttackScenario> scenarios;
  scenarios.reserve(static_cast<std::size_t>(count));
  const auto n = mesh.node_count();

  // A mesh can be structurally unable to host a scenario (e.g. too small
  // for the 2-hop attacker constraint, or more attackers than eligible
  // nodes); without a bound the retry loop below would spin forever.
  // Consecutive whole-scenario failures — not total attempts — are
  // counted, so a streak of bad luck on a feasible mesh resets on every
  // success while an infeasible mesh fails fast and loudly.
  constexpr std::int32_t kMaxConsecutiveFailures = 128;
  std::int32_t consecutive_failures = 0;

  while (static_cast<std::int32_t>(scenarios.size()) < count) {
    if (consecutive_failures >= kMaxConsecutiveFailures) {
      throw std::invalid_argument(
          "make_scenarios: no valid placement of " + std::to_string(num_attackers) +
          " attacker(s) >= 2 hops from a victim on a " + std::to_string(mesh.rows()) + "x" +
          std::to_string(mesh.cols()) + " mesh after " + std::to_string(kMaxConsecutiveFailures) +
          " consecutive attempts");
    }
    AttackScenario s;
    s.fir = fir;
    s.victim = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    bool ok = true;
    for (std::int32_t a = 0; a < num_attackers && ok; ++a) {
      // Keep attackers distinct, away from the victim and each other so
      // the flooding route is at least two hops (single-hop floods leave
      // no routing-path victims to localize).
      for (int attempt = 0;; ++attempt) {
        if (attempt >= 64) {
          ok = false;
          break;
        }
        const auto cand = static_cast<NodeId>(rng.uniform_int(0, n - 1));
        if (cand == s.victim || mesh.hop_distance(cand, s.victim) < 2) continue;
        if (std::find(s.attackers.begin(), s.attackers.end(), cand) != s.attackers.end()) {
          continue;
        }
        s.attackers.push_back(cand);
        break;
      }
    }
    if (ok) {
      scenarios.push_back(std::move(s));
      consecutive_failures = 0;
    } else {
      ++consecutive_failures;
    }
  }
  return scenarios;
}

AttackScenario make_colluding_scenario(const MeshShape& mesh, std::int32_t colluders,
                                       double aggregate_fir, std::uint64_t seed) {
  // Validate loudly in every build type: an out-of-range aggregate would
  // silently turn the "low-rate" sources into full-rate flooders (the
  // per-attacker FIR must stay a probability), corrupting any robustness
  // matrix built from the config.
  if (colluders < 1) {
    throw std::invalid_argument("make_colluding_scenario: colluders must be >= 1, got " +
                                std::to_string(colluders));
  }
  if (!(aggregate_fir >= 0.0 && aggregate_fir <= static_cast<double>(colluders))) {
    throw std::invalid_argument(
        "make_colluding_scenario: aggregate_fir must be in [0, colluders] so each source's "
        "FIR is a probability; got " +
        std::to_string(aggregate_fir) + " across " + std::to_string(colluders) + " colluders");
  }
  return make_scenarios(mesh, /*count=*/1, colluders,
                        aggregate_fir / static_cast<double>(colluders), seed)[0];
}

}  // namespace dl2f::traffic
