// Traffic-generator interface and the benign generators built on it.
//
// A TrafficGenerator is ticked once per simulated cycle *before* the mesh
// advances; it decides which packets each node injects that cycle. Benign
// traffic and the FDoS attacker are independent generators composed by the
// Simulation driver, matching the paper's "flooding overlays normal
// workload traffic" threat model (§2.3).
#pragma once

#include "common/rng.hpp"
#include "noc/mesh.hpp"
#include "traffic/patterns.hpp"

namespace dl2f::traffic {

class TrafficGenerator {
 public:
  virtual ~TrafficGenerator() = default;
  /// Inject this cycle's packets into `mesh` (mesh.now() is the cycle).
  virtual void tick(noc::Mesh& mesh) = 0;
};

/// Benign synthetic-traffic-pattern generator: every node performs a
/// Bernoulli(rate) trial per cycle and, on success, injects one packet to
/// the pattern-defined destination.
class SyntheticTraffic final : public TrafficGenerator {
 public:
  SyntheticTraffic(SyntheticPattern pattern, double injection_rate, std::uint64_t seed);

  void tick(noc::Mesh& mesh) override;

 private:
  SyntheticPattern pattern_;
  BernoulliP rate_;
  Rng rng_;
};

}  // namespace dl2f::traffic
