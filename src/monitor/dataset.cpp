#include "monitor/dataset.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "traffic/simulation.hpp"

namespace dl2f::monitor {

std::size_t Dataset::attack_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), [](const auto& s) { return s.under_attack; }));
}

std::size_t Dataset::benign_count() const noexcept { return samples.size() - attack_count(); }

FrameSample sample_window(const FeatureSampler& sampler, noc::Mesh& mesh,
                          std::int64_t window_cycles) {
  FrameSample s;
  s.vco = sampler.sample_vco(mesh, /*reset=*/true);
  s.boc = sampler.sample_boc(mesh, /*reset=*/true);
  s.ni_load = sampler.sample_ni_load(mesh, /*reset=*/true);
  s.window_cycles = window_cycles;
  return s;
}

void check_window(const FrameSample& sample, const MeshShape& mesh, const char* who) {
  const auto fits = [&](const DirectionalFrames& frames) {
    return std::all_of(frames.begin(), frames.end(), [&](const Frame& f) {
      return f.rows() == mesh.rows() && f.cols() == mesh.cols() - 1;
    });
  };
  if (!fits(sample.vco) || !fits(sample.boc) ||
      !(sample.ni_load.empty() || std::cmp_equal(sample.ni_load.size(), mesh.node_count()))) {
    throw std::invalid_argument(std::string(who) + ": window does not come from the model's " +
                                std::to_string(mesh.rows()) + "x" + std::to_string(mesh.cols()) +
                                " mesh");
  }
}

DirectionalFrames ground_truth_masks(const FrameGeometry& geom,
                                     const traffic::AttackScenario& scenario) {
  DirectionalFrames masks;
  for (Direction d : kMeshDirections) frame_of(masks, d) = geom.make_frame();
  if (scenario.attackers.empty()) return masks;
  for (const auto& [node, dir] : scenario.ground_truth_ports(geom.mesh())) {
    const auto pos = geom.to_frame(dir, geom.mesh().coord_of(node));
    if (pos) frame_of(masks, dir).at(pos->row, pos->col) = 1.0F;
  }
  return masks;
}

namespace {

void collect_samples(traffic::Simulation& sim, const FeatureSampler& sampler,
                     std::int64_t period, std::int32_t count, bool under_attack,
                     const traffic::AttackScenario& scenario, Dataset& out) {
  const FrameGeometry& geom = sampler.geometry();
  for (std::int32_t k = 0; k < count; ++k) {
    sim.run(period);
    FrameSample s = sample_window(sampler, sim.mesh(), period);
    s.under_attack = under_attack;
    if (under_attack) {
      s.scenario = scenario;
      s.port_truth = ground_truth_masks(geom, scenario);
      s.victim_truth = scenario.ground_truth_victims(geom.mesh());
    } else {
      for (Direction d : kMeshDirections) frame_of(s.port_truth, d) = geom.make_frame();
    }
    out.samples.push_back(std::move(s));
  }
}

}  // namespace

Dataset generate_dataset(const DatasetConfig& cfg, const std::vector<Benchmark>& benchmarks) {
  Dataset out;
  out.mesh = cfg.mesh;
  const FeatureSampler sampler(cfg.mesh);
  Rng master(cfg.seed);

  for (const auto& bench : benchmarks) {
    // Paper §5: scenarios mix single- and double-attacker cases
    // ("1 attacker + 2 attackers together" in Tables 1-3).
    const std::int32_t n1 = (cfg.scenarios_per_benchmark + 1) / 2;
    const std::int32_t n2 = cfg.scenarios_per_benchmark - n1;
    auto scenarios = traffic::make_scenarios(cfg.mesh, n1, 1, cfg.fir, master.engine()());
    auto two = traffic::make_scenarios(cfg.mesh, n2, 2, cfg.fir, master.engine()());
    scenarios.insert(scenarios.end(), two.begin(), two.end());

    for (const auto& scenario : scenarios) {
      noc::MeshConfig mesh_cfg;
      mesh_cfg.shape = cfg.mesh;
      mesh_cfg.router = cfg.router;
      traffic::Simulation sim(mesh_cfg);
      sim.add_generator(bench.make_generator(cfg.mesh, master.engine()()));
      auto* attack_ptr =
          sim.emplace_generator<traffic::FloodingAttack>(scenario, master.engine()());
      attack_ptr->set_active(false);

      const auto period = bench.sample_period();
      sim.run(cfg.warmup_cycles);
      sim.mesh().reset_telemetry();

      collect_samples(sim, sampler, period, cfg.benign_samples_per_run, false, {}, out);

      attack_ptr->set_active(true);
      sim.run(cfg.attack_ramp_cycles);
      sim.mesh().reset_telemetry();

      collect_samples(sim, sampler, period, cfg.attack_samples_per_run, true, scenario, out);
    }
  }
  return out;
}

DatasetSplit split_dataset(const Dataset& data, double test_fraction, std::uint64_t seed) {
  DatasetSplit split;
  split.train.mesh = split.test.mesh = data.mesh;

  std::vector<std::size_t> attack_idx;
  std::vector<std::size_t> benign_idx;
  for (std::size_t i = 0; i < data.samples.size(); ++i) {
    (data.samples[i].under_attack ? attack_idx : benign_idx).push_back(i);
  }

  Rng rng(seed);
  const auto assign = [&](std::vector<std::size_t>& idx) {
    std::shuffle(idx.begin(), idx.end(), rng.engine());
    const auto n_test = static_cast<std::size_t>(static_cast<double>(idx.size()) * test_fraction);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      auto& dst = i < n_test ? split.test : split.train;
      dst.samples.push_back(data.samples[idx[i]]);
    }
  };
  assign(attack_idx);
  assign(benign_idx);
  return split;
}

}  // namespace dl2f::monitor
