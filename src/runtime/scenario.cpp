#include "runtime/scenario.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace dl2f::runtime {
namespace {

/// Grid order: the first kBuiltinFamilies are the non-adaptive families,
/// the rest the evasive ones.
constexpr std::array<std::string_view, 9> kFamilies{
    "static", "transient", "victim-sweep", "multi-victim", "ramp",
    "pulse", "stealth-ramp", "colluding", "mimicry"};
constexpr std::size_t kBuiltinFamilies = 5;

}  // namespace

Scenario::Scenario(std::string_view family, const ScenarioParams& params, std::uint64_t seed)
    : family_(family), mesh_(params.mesh), benign_(params.benign), start_(params.attack_start) {
  const auto require = [&](bool ok, const char* rule) {
    if (!ok) throw std::invalid_argument("scenario '" + family_ + "': " + rule);
  };
  // Every family but colluding places num_attackers attackers per leg; with
  // none, nothing would flood while attack_active() reports the attack on.
  // A FIR outside [0, 1] would be clamped silently (NaN fails the
  // comparisons, so it is refused too).
  const auto require_legs = [&](double fir) {
    require(params.num_attackers >= 1, "num_attackers must be >= 1");
    require(fir >= 0.0 && fir <= 1.0, "fir must be in [0, 1]");
  };
  const auto one_leg = [&](double fir) {
    require_legs(fir);
    legs_.push_back(traffic::make_scenarios(params.mesh, 1, params.num_attackers, fir,
                                            mix64(seed))[0]);
  };

  if (family_ == "static") {
    // The paper's threat model: fixed attackers, fixed victim, fixed FIR.
    one_leg(params.fir);
  } else if (family_ == "transient") {
    // On/off bursts stress probation: a defense that releases too eagerly
    // re-admits the attacker exactly when the next burst fires.
    one_leg(params.fir);
    pulse_ = traffic::PulseSchedule{start_, kBurstPeriod, kBurstDuty};
  } else if (family_ == "victim-sweep") {
    // The same attackers retarget a new victim every kSweepPeriod cycles,
    // so the flooding route (the segmentation signature) moves.
    require_legs(params.fir);
    rotate_period_ = kSweepPeriod;
    Rng rng(mix64(seed));
    const auto base = traffic::make_scenarios(params.mesh, 1, params.num_attackers, params.fir,
                                              rng.engine()())[0];
    legs_.push_back(base);
    // Further victims: distinct and >= 2 hops from every attacker, so each
    // leg leaves a localizable route. Bounded attempts: a small mesh may
    // not hold kSweepVictims such victims, and the sweep then degrades to
    // the legs that fit.
    const auto n = params.mesh.node_count();
    for (std::int64_t attempt = 0;
         attempt < 64LL * kSweepVictims && static_cast<std::int32_t>(legs_.size()) < kSweepVictims;
         ++attempt) {
      const auto cand = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      const bool used = std::any_of(legs_.begin(), legs_.end(),
                                    [&](const auto& leg) { return leg.victim == cand; });
      const bool too_close = std::any_of(base.attackers.begin(), base.attackers.end(),
                                         [&](NodeId a) {
                                           return params.mesh.hop_distance(a, cand) < 2;
                                         });
      if (used || too_close) continue;
      legs_.push_back(base);
      legs_.back().victim = cand;
    }
  } else if (family_ == "multi-victim") {
    // Independent single-attacker legs with distinct attacker nodes,
    // flooding different victims at once (victims may repeat). Bounded
    // attempts: on a mesh too small for num_attackers distinct
    // placements, fewer legs result.
    require_legs(params.fir);
    Rng rng(mix64(seed));
    for (std::int64_t attempt = 0; attempt < 64LL * params.num_attackers &&
                                   static_cast<std::int32_t>(legs_.size()) < params.num_attackers;
         ++attempt) {
      auto cand = traffic::make_scenarios(params.mesh, 1, 1, params.fir, rng.engine()())[0];
      const bool used = std::any_of(legs_.begin(), legs_.end(), [&](const auto& leg) {
        return leg.attackers[0] == cand.attackers[0];
      });
      if (!used) legs_.push_back(std::move(cand));
    }
  } else if (family_ == "ramp") {
    // FIR climbs from kRampStartFir to the full rate: a stealthy attacker
    // probing how much pressure goes undetected.
    one_leg(params.fir);
    ramp_ = traffic::StealthRamp{start_, kRampCycles, kRampStartFir, params.fir};
  } else if (family_ == "pulse") {
    // Duty cycling at sub-window scale (kPulsePeriod << window_cycles): the
    // window-averaged VCO sees only duty * FIR pressure.
    one_leg(params.fir);
    pulse_ = traffic::PulseSchedule{start_, kPulsePeriod, kPulseDuty};
  } else if (family_ == "stealth-ramp") {
    // FIR creeps up to a sub-saturation ceiling and stays there: it never
    // shows the detector the saturating rates it was trained on.
    one_leg(kStealthFir);
    ramp_ = traffic::StealthRamp{start_, kStealthRampCycles, kRampStartFir, kStealthFir};
  } else if (family_ == "colluding") {
    // Every source injects within the benign rate range; only the
    // aggregate at the victim's ingress saturates.
    legs_.push_back(traffic::make_colluding_scenario(params.mesh, kColluders,
                                                     kColludingAggregateFir, mix64(seed)));
  } else if (family_ == "mimicry") {
    // The attack's spatial signature matches the benign pattern and only
    // the volume differs; PARSEC and trace workloads (no pattern map) are
    // mimicked as UniformRandom. The leg's victim is unused.
    one_leg(kMimicryFir);
    const auto* stp = std::get_if<traffic::SyntheticPattern>(&params.benign.kind);
    mimic_ = stp != nullptr ? *stp : traffic::SyntheticPattern::UniformRandom;
  } else {
    throw std::invalid_argument("unknown scenario family '" + family_ + "'");
  }

  for (const auto& leg : legs_) {
    attackers_.insert(attackers_.end(), leg.attackers.begin(), leg.attackers.end());
  }
  std::sort(attackers_.begin(), attackers_.end());
  attackers_.erase(std::unique(attackers_.begin(), attackers_.end()), attackers_.end());
}

void Scenario::install(traffic::Simulation& sim, std::uint64_t seed) {
  // Every family has a leg, so a live handle means installed.
  if (!attacks_.empty()) {
    throw std::logic_error("scenario '" + family_ + "': install() called twice");
  }
  if (sim.mesh().shape() != mesh_) {
    throw std::invalid_argument("scenario '" + family_ + "': the simulation's mesh differs");
  }
  sim.add_generator(benign_.make_generator(mesh_, mix64(seed ^ 1)));
  for (std::size_t k = 0; k < legs_.size(); ++k) {
    auto* attack =
        sim.emplace_generator<traffic::FloodingAttack>(legs_[k], mix64(seed ^ (3 + k)), mimic_);
    attack->set_active(false);  // on_cycle switches legs on
    attacks_.push_back(attack);
  }
}

bool Scenario::on_cycle(noc::Cycle now) {
  const bool on = attack_active(now);
  const auto leg = on && rotate_period_ > 0
                       ? static_cast<std::size_t>(((now - start_) / rotate_period_) %
                                                  static_cast<noc::Cycle>(legs_.size()))
                       : 0;
  for (std::size_t k = 0; k < attacks_.size(); ++k) {
    attacks_[k]->set_active(on && (rotate_period_ == 0 || k == leg));
    if (on && ramp_) attacks_[k]->set_fir(ramp_->fir_at(now));
  }
  return on;
}

std::vector<NodeId> Scenario::advance(traffic::Simulation& sim, std::int64_t cycles) {
  bool attacked = false;
  for (std::int64_t c = 0; c < cycles; ++c) {
    if (on_cycle(sim.mesh().now())) attacked = true;
    sim.step();
  }
  std::vector<NodeId> flooded;
  if (attacked) {
    for (const NodeId a : attackers_) {
      if (!sim.mesh().quarantined(a)) flooded.push_back(a);
    }
  }
  return flooded;
}

const ScenarioRegistry& ScenarioRegistry::instance() {
  static const ScenarioRegistry registry;
  return registry;
}

bool ScenarioRegistry::contains(std::string_view name) const {
  return std::find(kFamilies.begin(), kFamilies.end(), name) != kFamilies.end();
}

std::unique_ptr<Scenario> ScenarioRegistry::make(std::string_view name,
                                                 const ScenarioParams& params,
                                                 std::uint64_t seed) const {
  if (!contains(name)) return nullptr;
  return std::make_unique<Scenario>(name, params, seed);
}

std::vector<std::string> builtin_scenario_families() {
  return {kFamilies.begin(), kFamilies.begin() + kBuiltinFamilies};
}

std::vector<std::string> evasive_scenario_families() {
  return {kFamilies.begin() + kBuiltinFamilies, kFamilies.end()};
}

std::vector<std::string> all_scenario_families() { return {kFamilies.begin(), kFamilies.end()}; }

CellSeeds cell_seeds(std::uint64_t seed, std::string_view family, std::string_view workload) {
  const std::uint64_t scenario = seed ^ fnv1a(family) ^ mix64(fnv1a(workload));
  return {scenario, scenario ^ 0x9e3779b97f4a7c15ULL};
}

}  // namespace dl2f::runtime
