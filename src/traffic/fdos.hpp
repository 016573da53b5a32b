// The refined Flooding-DoS (FDoS) threat model of §2.3.
//
// One or more malicious nodes continuously inject superfluous but
// *protocol-legal* packets toward a single target victim. The attack obeys
// the system's XY routing and credit flow control — it can only overwhelm
// the network by pressure, never by breaking the protocol. Its sole knob
// is the Flooding Injection Rate (FIR): the per-cycle probability that
// each attacker emits one flooding packet. FIR in (0,1) degrades the
// benign traffic; FIR = 1 saturates the attacker's injection port and,
// overlaid on real workloads, collapses the system (Fig. 1).
//
// Every attack family is this one flooder, switched on and off, retargeted
// or retuned over time by a runtime::Scenario, whose header fixes every
// family's periods, duties and rates. The schedules here are the evasive
// (detection-aware) shapes of that switching:
//
//  * PulseSchedule — on/off duty cycling. At sub-window scale a monitoring
//    window averages VCO over its whole span, so a pulse that floods
//    `duty` of every `period` cycles shows only `duty * FIR` average
//    pressure while still spiking queues.
//  * StealthRamp — an FIR ramp; held below saturation it probes how much
//    pressure goes unflagged forever.
//  * make_colluding_scenario — many low-rate sources aimed at one victim;
//    no single attacker's injection rate stands out, only the aggregate
//    at the victim's ingress saturates.
//  * FloodingAttack's mimicked pattern — destinations drawn from the
//    active benign SyntheticPattern's own map, so the attack's spatial
//    signature matches the workload and only the volume differs.
//
// Packets carry a ground-truth `malicious` flag used ONLY for labelling
// datasets and scoring — the detector never sees it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "traffic/generator.hpp"

namespace dl2f::traffic {

/// One attack configuration: who floods whom, and how hard.
struct AttackScenario {
  std::vector<NodeId> attackers;
  NodeId victim = -1;
  double fir = 0.8;  ///< flooding injection rate in [0, 1]

  /// All routing-path victims (nodes traversed by flooding packets,
  /// endpoints included) under XY routing — the localization ground truth.
  [[nodiscard]] std::vector<NodeId> ground_truth_victims(const MeshShape& mesh) const;

  /// The set of directional input ports (node, direction) that flooding
  /// flits traverse — ground truth for per-direction segmentation frames.
  [[nodiscard]] std::vector<std::pair<NodeId, Direction>> ground_truth_ports(
      const MeshShape& mesh) const;
};

/// The malicious 'Tick' function: overlays flooding packets on whatever
/// benign generator runs alongside it.
class FloodingAttack final : public TrafficGenerator {
 public:
  /// With `mimic` set, each packet's destination follows that pattern's
  /// map (UniformRandom draws from the RNG after the injection trial) and
  /// a packet that would target its own source is skipped, exactly as the
  /// benign SyntheticTraffic does; the scenario's victim is then unused.
  /// Throws std::invalid_argument when the scenario has no attackers or
  /// its FIR is outside [0, 1] (or NaN).
  FloodingAttack(AttackScenario scenario, std::uint64_t seed,
                 std::optional<SyntheticPattern> mimic = std::nullopt);

  void tick(noc::Mesh& mesh) override;

  /// Enable/disable at runtime (used to build mixed benign/attack traces).
  void set_active(bool active) noexcept { active_ = active; }
  /// Retune the flooding injection rate mid-run (ramping-attack scenarios).
  void set_fir(double fir) noexcept {
    assert(fir >= 0.0 && fir <= 1.0);
    scenario_.fir = fir;
    fir_ = BernoulliP(fir);
  }

 private:
  AttackScenario scenario_;
  BernoulliP fir_;  ///< scenario_.fir's trial
  std::optional<SyntheticPattern> mimic_;
  Rng rng_;
  bool active_ = true;
};

/// Cycle-level on/off square wave. Pure function of the cycle number, so
/// the generators' gate and ground-truth scoring agree on when the attack
/// is live without sharing state.
struct PulseSchedule {
  noc::Cycle start = 0;     ///< cycles before `start` are always off
  noc::Cycle period = 250;  ///< full on+off period (> 0)
  double duty = 0.3;        ///< fraction of each period spent on, in [0, 1]

  [[nodiscard]] bool on(noc::Cycle at) const noexcept {
    if (at < start || period <= 0) return false;
    const auto p = (at - start) % period;
    return static_cast<double>(p) < duty * static_cast<double>(period);
  }
};

/// FIR ramp: climbs linearly from `start_fir` at cycle `start` to
/// `ceiling` over `ramp_cycles`, then holds the ceiling.
struct StealthRamp {
  noc::Cycle start = 0;
  noc::Cycle ramp_cycles = 8000;
  double start_fir = 0.05;
  double ceiling = 0.3;

  [[nodiscard]] double fir_at(noc::Cycle at) const noexcept {
    if (at < start) return 0.0;
    if (ramp_cycles <= 0) return ceiling;
    const double frac = std::min(1.0, static_cast<double>(at - start) /
                                          static_cast<double>(ramp_cycles));
    return start_fir + (ceiling - start_fir) * frac;
  }
};

/// Deterministically generate `count` distinct attack scenarios on `mesh`
/// with `num_attackers` attackers each (the paper simulates 18 scenarios
/// per benchmark at FIR 0.8: a mix of 1- and 2-attacker cases).
/// Throws std::invalid_argument when num_attackers < 1, when `fir` is
/// outside [0, 1] (or NaN), or when the mesh cannot host such a scenario
/// at all (attackers must sit >= 2 hops from the victim, so e.g. a 1x2
/// mesh — or asking for more attackers than eligible nodes — fails fast
/// instead of retrying forever).
[[nodiscard]] std::vector<AttackScenario> make_scenarios(const MeshShape& mesh,
                                                         std::int32_t count,
                                                         std::int32_t num_attackers, double fir,
                                                         std::uint64_t seed);

/// Colluding low-rate flood: `colluders` distinct attackers (each >= 2
/// hops from the shared victim) each flooding at aggregate_fir/colluders,
/// so the victim's ingress sees `aggregate_fir` packets/cycle while every
/// individual source stays in the benign injection-rate range. Throws
/// std::invalid_argument (via make_scenarios) when the mesh cannot host
/// `colluders` such placements.
[[nodiscard]] AttackScenario make_colluding_scenario(const MeshShape& mesh,
                                                     std::int32_t colluders,
                                                     double aggregate_fir, std::uint64_t seed);

}  // namespace dl2f::traffic
