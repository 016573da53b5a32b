// Simulation driver: ties a mesh to its traffic generators and steps both.
#pragma once

#include <memory>
#include <vector>

#include "noc/mesh.hpp"
#include "traffic/generator.hpp"

namespace dl2f::traffic {

class Simulation {
 public:
  explicit Simulation(const noc::MeshConfig& cfg) : mesh_(cfg) {}

  /// Generators tick in insertion order each cycle, before the mesh steps.
  /// Returns a non-owning handle (valid for the Simulation's lifetime) so
  /// callers keep driving the generator after the ownership move — e.g.
  /// scenarios toggling FloodingAttack::set_active mid-run.
  TrafficGenerator* add_generator(std::unique_ptr<TrafficGenerator> gen) {
    generators_.push_back(std::move(gen));
    return generators_.back().get();
  }

  /// Construct a generator in place; returns a typed non-owning handle.
  template <typename T, typename... Args>
  T* emplace_generator(Args&&... args) {
    auto gen = std::make_unique<T>(std::forward<Args>(args)...);
    T* handle = gen.get();
    add_generator(std::move(gen));
    return handle;
  }

  void step() {
    for (auto& g : generators_) g->tick(mesh_);
    mesh_.step();
  }
  /// Advance `cycles` cycles. Mesh stepping is allocation-free in steady
  /// state and skips idle routers/NIs entirely (noc/mesh.hpp invariants),
  /// so long campaign windows cost only the active-traffic footprint.
  void run(std::int64_t cycles) {
    for (std::int64_t i = 0; i < cycles; ++i) step();
  }
  /// Step without injecting (lets the network drain). The drained() probe
  /// per cycle is cheap: it sums buffered flits over the routers whose
  /// activity bit is set, not the whole mesh.
  // lint-allow(DL008): test oracle — the golden tests drain with it before digesting the stats
  void run_drain(std::int64_t max_cycles) {
    for (std::int64_t i = 0; i < max_cycles && !mesh_.drained(); ++i) mesh_.step();
  }

  [[nodiscard]] noc::Mesh& mesh() noexcept { return mesh_; }

  /// Installed generators in insertion order (non-owning view) — lets a
  /// driver recover a typed handle after a Scenario installed it, e.g. the
  /// serving bench dynamic_casting for its workload::RequestReplyWorkload.
  [[nodiscard]] const std::vector<std::unique_ptr<TrafficGenerator>>& generators() const noexcept {
    return generators_;
  }

 private:
  noc::Mesh mesh_;
  std::vector<std::unique_ptr<TrafficGenerator>> generators_;
};

}  // namespace dl2f::traffic
