#include "temporal/adversarial.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>

#include "monitor/dataset.hpp"
#include "nn/loss.hpp"
#include "runtime/defense.hpp"
#include "traffic/simulation.hpp"

namespace dl2f::temporal {

std::vector<const monitor::FrameSample*> SequenceSample::view() const {
  std::vector<const monitor::FrameSample*> v;
  v.reserve(windows.size());
  for (const auto& w : windows) v.push_back(&w);
  return v;
}

std::size_t SequenceDataset::attack_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), [](const auto& s) { return s.under_attack; }));
}

std::size_t SequenceDataset::benign_count() const noexcept {
  return samples.size() - attack_count();
}

namespace {

constexpr float kLearningRate = 1e-3F;

/// One simulation run of one (family, workload) cell: DefenseRuntime-style
/// per-cycle stepping, one labeled sequence per window.
void collect_run(const SequenceDatasetConfig& cfg, const std::string& family,
                 const monitor::Benchmark& workload, std::int32_t rep, SequenceDataset& out) {
  const runtime::CellSeeds seeds =
      runtime::cell_seeds(cfg.seed + static_cast<std::uint64_t>(rep), family, workload.name());
  runtime::ScenarioParams params;
  params.mesh = cfg.mesh;
  params.benign = workload;
  runtime::Scenario scenario(family, params, seeds.scenario);

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = cfg.mesh;
  traffic::Simulation sim(mesh_cfg);
  scenario.install(sim, seeds.install);

  const monitor::FeatureSampler sampler(cfg.mesh);
  monitor::WindowHistory history(cfg.sequence_length);
  const auto period = kDefaultWindowCycles;
  sim.mesh().reset_telemetry();

  // Mitigation tail: emulate the fence so post-mitigation sequences (attack
  // history, benign truth) exist in the benign class; a head trained only on
  // attack-then-more-attack runs would false-positive on them. Two regimes,
  // because a live DefenseRuntime produces both:
  //  - even reps fence LATE (last third of the run): the attack ran long,
  //    then a drain tail — the slow-detection regime;
  //  - odd reps replay the live fence-probation CYCLE: fence one window
  //    after the attack starts (the runtime fences on the first window
  //    that names a node), release after runtime::kProbationWindows
  //    fenced windows, the attack resumes, re-fence one window later,
  //    repeat. Without this rep every training sequence holds 4+ attack
  //    windows before its drain, and the head both false-positives on the
  //    live loop's [benign, attack, drain, benign] shape and never sees a
  //    resume-after-release window labeled attack.
  const auto attack_window = static_cast<std::int32_t>(params.attack_start / period);
  const bool fence_cycle = rep % 2 == 1;
  const std::int32_t tail_from =
      fence_cycle ? cfg.windows_per_run
                  : std::max(1, cfg.windows_per_run - cfg.windows_per_run / 3);
  std::int32_t fence_at = std::min(attack_window + 1, cfg.windows_per_run - 1);
  std::int32_t release_at = -1;

  for (std::int32_t w = 0; w < cfg.windows_per_run; ++w) {
    if (fence_cycle) {
      if (w == fence_at) {
        for (const NodeId a : scenario.all_attackers()) sim.mesh().set_quarantined(a, true);
        release_at = w + runtime::kProbationWindows;
        fence_at = -1;
      } else if (w == release_at) {
        for (const NodeId a : scenario.all_attackers()) sim.mesh().set_quarantined(a, false);
        fence_at = w + 1;
        release_at = -1;
      }
    } else if (w == tail_from) {
      for (const NodeId a : scenario.all_attackers()) sim.mesh().set_quarantined(a, true);
    }
    // The label is the window truth DefenseRuntime scores against: some
    // attacker flooded during the window (Scenario::advance).
    const bool active = !scenario.advance(sim, period).empty();
    monitor::FrameSample sample = monitor::sample_window(sampler, sim.mesh(), period);
    sample.under_attack = active;
    history.push(std::move(sample));

    SequenceSample seq;
    seq.family = family;
    seq.workload = workload.name();
    seq.under_attack = active;
    const auto view = history.view();
    seq.windows.reserve(view.size());
    for (const monitor::FrameSample* s : view) seq.windows.push_back(*s);
    out.samples.push_back(std::move(seq));
  }
}

}  // namespace

SequenceDataset generate_sequence_dataset(const SequenceDatasetConfig& cfg,
                                          const std::vector<std::string>& families,
                                          const std::vector<monitor::Benchmark>& workloads) {
  check_sequence_length(cfg.sequence_length, "generate_sequence_dataset");
  SequenceDataset out;
  out.mesh = cfg.mesh;
  out.sequence_length = cfg.sequence_length;
  for (const auto& family : families) {
    for (const auto& workload : workloads) {
      for (std::int32_t rep = 0; rep < cfg.runs_per_cell; ++rep) {
        collect_run(cfg, family, workload, rep, out);
      }
    }
  }
  return out;
}

nn::TrainReport train_temporal_detector(TemporalDetector& detector, const SequenceDataset& data,
                                        const nn::TrainConfig& cfg) {
  const std::int32_t t = detector.config().sequence_length;
  if (data.sequence_length != t) {
    throw std::invalid_argument("train_temporal_detector: dataset sequences are not " +
                                std::to_string(t) + " windows long like the detector's");
  }
  for (const auto& seq : data.samples) {
    detector.check_sequence(seq.view(), "train_temporal_detector");
  }
  const auto stage = [&](std::size_t item, nn::Tensor4& input, std::int32_t slot) {
    const auto& seq = data.samples[item];
    std::array<const monitor::FrameSample*, kMaxSequenceLength> ptrs{};
    for (std::size_t i = 0; i < seq.windows.size(); ++i) ptrs[i] = &seq.windows[i];
    detector.preprocess_into({ptrs.data(), seq.windows.size()}, input, slot);
  };
  // Unweighted BCE: the grid is roughly class-balanced once the mitigation
  // tail is mixed in, and weighting benign sequences up measurably traded
  // evasive-family recall for no static-precision gain.
  const auto loss = [&](std::size_t item, const float* pred, std::size_t n,
                        float* grad) -> nn::ItemLoss {
    const float target = data.samples[item].under_attack ? 1.0F : 0.0F;
    return {nn::bce_loss_into(pred, &target, n, 1.0F, grad), 0.0};
  };
  return nn::train(detector.model(), detector.input_shape(), kLearningRate, data.samples.size(),
                   stage, loss, cfg);
}

}  // namespace dl2f::temporal
