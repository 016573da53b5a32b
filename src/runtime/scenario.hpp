// Named attack-scenario families for the online defense runtime.
//
// The paper evaluates one static threat shape: fixed attackers flooding a
// fixed victim at a fixed FIR. A production defense must survive attacks
// that move. Every family here is still the paper's one flooder
// (traffic::FloodingAttack) overlaid on a benign workload, driven by one
// schedule: a start cycle, an optional on/off square wave (transient,
// pulse), an optional FIR ramp (ramp, stealth-ramp), an optional rotation
// over victims (victim-sweep) and an optional mimicked destination pattern
// (mimicry). Each family fixes its schedule in the k* constants below, so
// ScenarioParams holds only what all families share. A Scenario installs
// its generators into a Simulation once and is then advanced cycle by
// cycle (on_cycle, or advance() for a span) to gate and retune them. The
// same schedule answers the ground-truth question "which attacker nodes
// are flooding at cycle t"; advance() returns a span's answer, which the
// DefenseRuntime scores detection and attacker identification against and
// the temporal sequence grid labels by. All of a scenario's attackers flood
// together, so active_attackers(t) is either empty or all_attackers().
//
// ScenarioRegistry names the nine families in one fixed table, so
// campaigns can name their grid axes ("static", "transient",
// "victim-sweep", "multi-victim", "ramp", "pulse", "stealth-ramp",
// "colluding", "mimicry").
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "monitor/benchmark.hpp"
#include "traffic/fdos.hpp"
#include "traffic/simulation.hpp"

namespace dl2f::runtime {

// transient: square-wave flooding with this full period and on-fraction.
inline constexpr noc::Cycle kBurstPeriod = 2000;
inline constexpr double kBurstDuty = 0.5;
// victim-sweep: the next of kSweepVictims victims every kSweepPeriod cycles.
inline constexpr noc::Cycle kSweepPeriod = 2000;
inline constexpr std::int32_t kSweepVictims = 3;
// ramp: FIR climbs linearly from kRampStartFir to `fir` over kRampCycles.
inline constexpr noc::Cycle kRampCycles = 6000;
inline constexpr double kRampStartFir = 0.1;
// pulse (evasive, like the three below): duty cycling at sub-window scale,
// on for kPulseDuty of every kPulsePeriod cycles.
inline constexpr noc::Cycle kPulsePeriod = 250;
inline constexpr double kPulseDuty = 0.3;
// stealth-ramp: FIR creeps from kRampStartFir up to kStealthFir (a
// sub-saturation ceiling, never the full `fir`) over kStealthRampCycles.
inline constexpr double kStealthFir = 0.3;
inline constexpr noc::Cycle kStealthRampCycles = 8000;
// colluding: kColluders distinct sources share one victim, each at
// kColludingAggregateFir / kColluders — only the aggregate saturates.
inline constexpr std::int32_t kColluders = 6;
inline constexpr double kColludingAggregateFir = 0.9;
// mimicry: attack volume shaped like the benign SyntheticPattern (PARSEC
// workloads are mimicked as UniformRandom) at this per-attacker FIR.
inline constexpr double kMimicryFir = 0.35;

/// What every scenario family shares (each family's schedule is above).
struct ScenarioParams {
  MeshShape mesh = MeshShape::square(8);
  /// Benign background workload the attack overlays (§2.3).
  monitor::Benchmark benign{traffic::SyntheticPattern::UniformRandom};
  /// Flooding injection rate of every family but stealth-ramp, colluding
  /// and mimicry, which flood at their own constants.
  double fir = 0.8;
  std::int32_t num_attackers = 2;
  /// Cycle the attack switches on (benign-only before that).
  noc::Cycle attack_start = 3000;
};

/// One live attack campaign on one Simulation.
class Scenario final {
 public:
  /// Builds `family`'s attack legs and schedule from `params`; the legs
  /// are fixed here, so ground truth is queryable before install().
  /// Throws std::invalid_argument for an unknown family, for
  /// num_attackers < 1 in a family that places attackers (all but
  /// colluding), and for a `fir` outside [0, 1] or NaN in a family that
  /// floods at it.
  Scenario(std::string_view family, const ScenarioParams& params, std::uint64_t seed);
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Install the benign generator and one FloodingAttack per leg, once,
  /// before stepping the simulation. Throws, before adding any generator,
  /// std::logic_error on a second call and std::invalid_argument when
  /// `sim`'s mesh is not the scenario's.
  void install(traffic::Simulation& sim, std::uint64_t seed);

  /// Gate and retune the attack generators for cycle `now`; call once per
  /// cycle before Simulation::step(). Returns attack_active(now).
  bool on_cycle(noc::Cycle now);

  /// Step `sim` `cycles` cycles, calling on_cycle before each step, and
  /// return the attackers that flooded during the span: every one not
  /// fenced (Mesh::quarantined) if the attack was on at ANY cycle of it,
  /// nobody otherwise. Callers fence only between spans, so a fenced
  /// attacker put nothing on the wire.
  std::vector<NodeId> advance(traffic::Simulation& sim, std::int64_t cycles);

  /// Ground truth: whether the attack floods at `at`.
  [[nodiscard]] bool attack_active(noc::Cycle at) const noexcept {
    return at >= start_ && (!pulse_ || pulse_->on(at));
  }

  /// Ground truth: attacker nodes flooding at `at` (all or none).
  [[nodiscard]] std::vector<NodeId> active_attackers(noc::Cycle at) const {
    return attack_active(at) ? attackers_ : std::vector<NodeId>{};
  }

  /// Every attacker node the scenario uses, ascending.
  [[nodiscard]] const std::vector<NodeId>& all_attackers() const noexcept { return attackers_; }

 private:
  std::string family_;
  MeshShape mesh_;
  monitor::Benchmark benign_;
  std::vector<traffic::AttackScenario> legs_;
  std::vector<NodeId> attackers_;  ///< sorted union of the legs' attackers

  // The schedule.
  noc::Cycle start_ = 0;                            ///< benign-only before this cycle
  std::optional<traffic::PulseSchedule> pulse_;     ///< on/off square wave
  std::optional<traffic::StealthRamp> ramp_;        ///< FIR retuned every on-cycle
  noc::Cycle rotate_period_ = 0;                    ///< > 0: one leg at a time, next every period
  std::optional<traffic::SyntheticPattern> mimic_;  ///< destinations follow this pattern

  std::vector<traffic::FloodingAttack*> attacks_;  ///< live handles, one per leg
};

/// The nine family names over one fixed table.
class ScenarioRegistry {
 public:
  static const ScenarioRegistry& instance();

  [[nodiscard]] bool contains(std::string_view name) const;
  /// nullptr when `name` is not a family; throws like Scenario's
  /// constructor on bad params.
  [[nodiscard]] std::unique_ptr<Scenario> make(std::string_view name, const ScenarioParams& params,
                                               std::uint64_t seed) const;

 private:
  ScenarioRegistry() = default;
};

/// The original five built-in family names (the non-adaptive attackers).
[[nodiscard]] std::vector<std::string> builtin_scenario_families();

/// The four evasive (detection-aware) families: "pulse", "stealth-ramp",
/// "colluding", "mimicry" — each built on a traffic/fdos.hpp schedule.
[[nodiscard]] std::vector<std::string> evasive_scenario_families();

/// All nine families: builtin followed by evasive.
[[nodiscard]] std::vector<std::string> all_scenario_families();

/// Seeds of one (seed, family, workload) grid cell: `scenario` constructs
/// the Scenario and `install` seeds Scenario::install. Both are pure
/// functions of the cell's coordinates, never of worker id or execution
/// order, so a campaign (run_campaign) and the temporal head's sequence
/// grid (temporal::generate_sequence_dataset) replay equal coordinates
/// identically at any thread count. The workload hash goes through mix64
/// so the two string hashes cannot cancel each other under the XOR.
struct CellSeeds {
  std::uint64_t scenario = 0;
  std::uint64_t install = 0;
};
[[nodiscard]] CellSeeds cell_seeds(std::uint64_t seed, std::string_view family,
                                   std::string_view workload);

}  // namespace dl2f::runtime
