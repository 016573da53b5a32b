#include "runtime/scenario.hpp"

#include <algorithm>
#include <array>
#include <cassert>
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
  const auto require = [&](bool ok, const std::string& rule) {
    if (!ok) throw std::invalid_argument("scenario '" + family_ + "': " + rule);
  };
  // NaN fails the comparisons, so it is refused too.
  const auto require_unit = [&](double value, const char* field) {
    require(value >= 0.0 && value <= 1.0, std::string(field) + " must be in [0, 1]");
  };
  // Every family but colluding places num_attackers attackers per leg; with
  // none, nothing would flood while attack_active() reports the attack on.
  const auto require_legs = [&](double fir, const char* field) {
    require(params.num_attackers >= 1, "num_attackers must be >= 1");
    require_unit(fir, field);
  };
  const auto one_leg = [&](double fir, const char* field) {
    require_legs(fir, field);
    legs_.push_back(traffic::make_scenarios(params.mesh, 1, params.num_attackers, fir,
                                            mix64(seed))[0]);
  };

  if (family_ == "static") {
    // The paper's threat model: fixed attackers, fixed victim, fixed FIR.
    one_leg(params.fir, "fir");
  } else if (family_ == "transient") {
    // On/off bursts stress probation: a defense that releases too eagerly
    // re-admits the attacker exactly when the next burst fires.
    require(params.burst_period > 0, "burst_period must be > 0");
    require_unit(params.burst_duty, "burst_duty");
    one_leg(params.fir, "fir");
    pulse_ = traffic::PulseSchedule{start_, params.burst_period, params.burst_duty, 0};
  } else if (family_ == "victim-sweep") {
    // The same attackers retarget a new victim every sweep_period cycles,
    // so the flooding route (the segmentation signature) moves.
    require(params.sweep_period > 0, "sweep_period must be > 0");
    require(params.sweep_victims >= 1, "sweep_victims must be >= 1");
    require_legs(params.fir, "fir");
    rotate_period_ = params.sweep_period;
    Rng rng(mix64(seed));
    const auto base = traffic::make_scenarios(params.mesh, 1, params.num_attackers, params.fir,
                                              rng.engine()())[0];
    legs_.push_back(base);
    // Further victims: distinct and >= 2 hops from every attacker, so each
    // leg leaves a localizable route. Bounded attempts: a small mesh may
    // not hold sweep_victims such victims, and the sweep then degrades to
    // the legs that fit.
    const auto n = params.mesh.node_count();
    for (std::int64_t attempt = 0; attempt < 64LL * params.sweep_victims &&
                                   static_cast<std::int32_t>(legs_.size()) < params.sweep_victims;
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
    require_legs(params.fir, "fir");
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
    // FIR climbs from ramp_start_fir to the full rate: a stealthy attacker
    // probing how much pressure goes undetected.
    one_leg(params.fir, "fir");
    require_unit(params.ramp_start_fir, "ramp_start_fir");
    ramp_ = traffic::StealthRamp{start_, params.ramp_cycles, params.ramp_start_fir, params.fir};
  } else if (family_ == "pulse") {
    // Duty cycling at sub-window scale (pulse_period << window_cycles): the
    // window-averaged VCO sees only duty * FIR pressure.
    require(params.pulse_period > 0, "pulse_period must be > 0");
    require_unit(params.pulse_duty, "pulse_duty");
    one_leg(params.fir, "fir");
    pulse_ = traffic::PulseSchedule{start_, params.pulse_period, params.pulse_duty,
                                    params.pulse_phase};
  } else if (family_ == "stealth-ramp") {
    // FIR creeps up to a sub-saturation ceiling and stays there: it never
    // shows the detector the saturating rates it was trained on.
    one_leg(params.stealth_fir, "stealth_fir");
    require_unit(params.ramp_start_fir, "ramp_start_fir");
    ramp_ = traffic::StealthRamp{start_, params.stealth_ramp_cycles,
                                 std::min(params.ramp_start_fir, params.stealth_fir),
                                 params.stealth_fir};
  } else if (family_ == "colluding") {
    // Every source injects within the benign rate range; only the
    // aggregate at the victim's ingress saturates.
    legs_.push_back(traffic::make_colluding_scenario(
        params.mesh, params.colluders, params.colluding_aggregate_fir, mix64(seed)));
  } else if (family_ == "mimicry") {
    // The attack's spatial signature matches the benign pattern and only
    // the volume differs; PARSEC and trace workloads (no pattern map) are
    // mimicked as UniformRandom. The leg's victim is unused.
    one_leg(params.mimicry_fir, "mimicry_fir");
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
  assert(attacks_.empty() && "install() must be called exactly once");
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

bool Scenario::advance(traffic::Simulation& sim, std::int64_t cycles) {
  bool attacked = false;
  for (std::int64_t c = 0; c < cycles; ++c) {
    if (on_cycle(sim.mesh().now())) attacked = true;
    sim.step();
  }
  return attacked;
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
