#include "runtime/campaign.hpp"

#include <atomic>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "common/worker_pool.hpp"
#include "core/detector.hpp"
#include "core/localizer.hpp"
#include "monitor/dataset.hpp"
#include "temporal/adversarial.hpp"

namespace dl2f::runtime {
namespace {

JobResult run_job(const CampaignConfig& cfg, const core::PipelineEngine& engine,
                  const std::string& family, const monitor::Benchmark& workload,
                  std::uint64_t seed) {
  JobResult result;
  result.family = family;
  result.workload = workload.name();
  result.seed = seed;

  const CellSeeds seeds = cell_seeds(seed, family, result.workload);
  ScenarioParams params = cfg.params;
  params.benign = workload;
  Scenario scenario(family, params, seeds.scenario);

  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = cfg.params.mesh;
  // One stepping thread per mesh: campaigns already parallelize across
  // jobs, so per-mesh threads would only oversubscribe the pool. Shards
  // stay at the mesh's auto default (results are bitwise identical at any
  // shard count).
  mesh_cfg.step_threads = 1;
  traffic::Simulation sim(mesh_cfg);
  scenario.install(sim, seeds.install);

  DefenseRuntime runtime(sim, engine, cfg.defense);
  runtime.attach_scenario(&scenario);
  runtime.run_windows(cfg.windows);
  result.summary = runtime.summarize();
  return result;
}

}  // namespace

ModelSnapshot ModelSnapshot::capture(const core::PipelineEngine& engine) {
  ModelSnapshot snap;
  snap.config = engine.config();
  std::ostringstream det, loc;
  engine.detector().model().save(det);
  engine.localizer().model().save(loc);
  snap.detector_weights = det.str();
  snap.localizer_weights = loc.str();
  if (engine.has_temporal()) {
    std::ostringstream tmp;
    engine.temporal().model().save(tmp);
    snap.temporal_weights = tmp.str();
  }
  return snap;
}

core::PipelineEngine ModelSnapshot::make_engine() const {
  // Fail loudly rather than return an engine that would score whole
  // campaigns with garbage weights, with an untrained temporal head (no
  // blob for it) or without the temporal head its blob was trained for.
  if (temporal_weights.empty() == config.enable_temporal) {
    throw std::runtime_error(
        "ModelSnapshot::make_engine: the temporal blob and config.enable_temporal disagree");
  }
  core::PipelineEngine engine(config);
  const auto load = [](nn::Sequential& model, const std::string& blob) {
    std::istringstream is(blob);
    if (!model.load(is)) {
      throw std::runtime_error(
          "ModelSnapshot::make_engine: weight blob does not match the architecture");
    }
  };
  load(engine.mutable_detector().model(), detector_weights);
  load(engine.mutable_localizer().model(), localizer_weights);
  if (config.enable_temporal) load(engine.mutable_temporal().model(), temporal_weights);
  return engine;
}

ModelSnapshot train_model_snapshot(const MeshShape& mesh, const monitor::Benchmark& benign,
                                   const TrainPreset& preset) {
  return train_model_snapshot(mesh, std::vector<monitor::Benchmark>{benign}, preset);
}

ModelSnapshot train_model_snapshot(const MeshShape& mesh,
                                   const std::vector<monitor::Benchmark>& benigns,
                                   const TrainPreset& preset) {
  monitor::DatasetConfig data_cfg;
  data_cfg.mesh = mesh;
  data_cfg.scenarios_per_benchmark = preset.scenarios;
  data_cfg.benign_samples_per_run = preset.benign_samples;
  data_cfg.attack_samples_per_run = preset.attack_samples;
  data_cfg.seed = preset.seed;
  const monitor::Dataset data = monitor::generate_dataset(data_cfg, benigns);

  core::Dl2FenceConfig fence_cfg = core::Dl2FenceConfig::paper_default(mesh);
  fence_cfg.enable_temporal = preset.temporal;
  fence_cfg.temporal.sequence_length = preset.sequence_length;
  core::PipelineEngine engine(fence_cfg);
  const auto train_cfg = [&](std::int32_t epochs, std::uint64_t salt) {
    return nn::TrainConfig{.epochs = epochs, .seed = preset.seed ^ salt, .threads = preset.threads};
  };
  core::train_detector(engine.mutable_detector(), data, train_cfg(preset.detector_epochs, 0x42));
  core::train_localizer(engine.mutable_localizer(), data, train_cfg(preset.localizer_epochs, 0x43));

  if (preset.temporal) {
    // Adversarial retraining preset: the sequence grid mixes every
    // registered family — static AND evasive — over the same benign
    // workloads, so the temporal head sees pulse troughs, ramp onsets and
    // colluding low-rate floods at training time.
    temporal::SequenceDatasetConfig seq_cfg;
    seq_cfg.mesh = mesh;
    seq_cfg.sequence_length = preset.sequence_length;
    seq_cfg.windows_per_run = preset.temporal_windows_per_run;
    seq_cfg.runs_per_cell = preset.temporal_runs_per_cell;
    seq_cfg.seed = preset.seed;
    const std::vector<std::string> families = preset.adversarial_families.empty()
                                                  ? all_scenario_families()
                                                  : preset.adversarial_families;
    const temporal::SequenceDataset seq_data = temporal::generate_sequence_dataset(
        seq_cfg, families, preset.temporal_benigns.empty() ? benigns : preset.temporal_benigns);

    temporal::train_temporal_detector(engine.mutable_temporal(), seq_data,
                                      train_cfg(preset.temporal_epochs, 0x44));
  }
  return ModelSnapshot::capture(engine);
}

CampaignResult run_campaign(const CampaignConfig& cfg, const ModelSnapshot& model) {
  // Validate the grid before any worker spawns: a typo'd family name, a
  // mesh/model mismatch or an empty monitoring window must be a
  // diagnosable error, not a crash inside a worker thread.
  if (!(cfg.params.mesh == model.config.detector.mesh)) {
    throw std::invalid_argument("run_campaign: cfg.params.mesh does not match the model's mesh");
  }
  if (cfg.defense.window_cycles < 1) {
    throw std::invalid_argument("run_campaign: cfg.defense.window_cycles must be at least 1");
  }
  for (const auto& family : cfg.families) {
    if (!ScenarioRegistry::instance().contains(family)) {
      throw std::invalid_argument("run_campaign: unknown scenario family '" + family + "'");
    }
  }

  // Workload axis: an empty list means "the params.benign workload only"
  // (the original two-axis grid, with the workload still recorded).
  const std::vector<monitor::Benchmark> workloads =
      cfg.workloads.empty() ? std::vector<monitor::Benchmark>{cfg.params.benign} : cfg.workloads;

  struct Job {
    const std::string* family;
    const monitor::Benchmark* workload;
    std::uint64_t seed;
  };
  std::vector<Job> jobs;
  jobs.reserve(cfg.families.size() * workloads.size() * cfg.seeds.size());
  for (const auto& family : cfg.families) {
    for (const auto& workload : workloads) {
      for (const std::uint64_t seed : cfg.seeds) jobs.push_back(Job{&family, &workload, seed});
    }
  }

  CampaignResult result;
  result.jobs.resize(jobs.size());
  if (jobs.empty()) return result;

  // The campaign's single weight deserialization: one const engine, shared
  // by reference across the whole pool (each job's DefenseRuntime carries
  // its own PipelineSession scratch).
  const core::PipelineEngine engine = model.make_engine();

  const std::int32_t worker_count =
      std::max(1, std::min<std::int32_t>(cfg.threads, static_cast<std::int32_t>(jobs.size())));
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};

  // The caller is one of the worker_count workers. Workers share the one
  // engine read-only; scoring state lives in each job's session, so reuse
  // is safe and deterministic. A job exception (a scenario refusing its
  // params) stops the other workers, and the pool rethrows it to the
  // caller once every worker has returned.
  common::WorkerPool pool(worker_count - 1);
  pool.run([&](std::int32_t /*worker*/) {
    try {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= jobs.size()) break;
        result.jobs[i] = run_job(cfg, engine, *jobs[i].family, *jobs[i].workload, jobs[i].seed);
      }
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      throw;
    }
  });
  return result;
}

CampaignCell CampaignResult::cell(std::string_view family, std::string_view workload) const {
  CampaignCell c;
  c.family = family;
  c.workload = workload;
  double acc = 0.0, det_f1 = 0.0, loc_f1 = 0.0, ttm = 0.0, ratio = 0.0;
  std::int64_t mitigated = 0, recovered = 0;
  for (const auto& job : jobs) {
    if (job.family != family || (!workload.empty() && job.workload != workload)) continue;
    ++c.jobs;
    acc += job.summary.detection.accuracy;
    det_f1 += job.summary.detection.f1;
    loc_f1 += job.summary.attacker_id.f1;
    if (job.summary.mitigated()) {
      ++mitigated;
      ttm += static_cast<double>(job.summary.time_to_mitigate());
    }
    if (job.summary.recovered() && job.summary.baseline_latency > 0.0) {
      ++recovered;
      ratio += job.summary.recovered_latency / job.summary.baseline_latency;
    }
  }
  if (c.jobs == 0) return c;
  const auto n = static_cast<double>(c.jobs);
  c.detection_accuracy = acc / n;
  c.detection_f1 = det_f1 / n;
  c.localization_f1 = loc_f1 / n;
  c.mitigation_rate = static_cast<double>(mitigated) / n;
  c.recovery_rate = static_cast<double>(recovered) / n;
  if (mitigated > 0) c.mean_time_to_mitigate = ttm / static_cast<double>(mitigated);
  if (recovered > 0) c.mean_recovery_ratio = ratio / static_cast<double>(recovered);
  return c;
}

TextTable CampaignResult::family_table(const std::vector<std::string>& family_order) const {
  TextTable table({"Scenario", "Jobs", "Det acc", "Det F1", "Attacker F1", "Mitigated",
                   "TTM (cyc)", "Recovered", "Lat ratio"});
  for (const auto& family : family_order) {
    const CampaignCell c = cell(family);
    if (c.jobs == 0) continue;
    table.add_row({family, std::to_string(c.jobs), TextTable::cell(c.detection_accuracy),
                   TextTable::cell(c.detection_f1), TextTable::cell(c.localization_f1),
                   TextTable::cell(c.mitigation_rate, 2),
                   c.mitigation_rate > 0.0 ? TextTable::cell(c.mean_time_to_mitigate, 0) : "-",
                   TextTable::cell(c.recovery_rate, 2),
                   c.recovery_rate > 0.0 ? TextTable::cell(c.mean_recovery_ratio, 2) : "-"});
  }
  return table;
}

std::string CampaignResult::serialize() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6);
  for (const auto& job : jobs) {
    const auto& s = job.summary;
    os << job.family << " workload=" << job.workload << " seed=" << job.seed
       << " windows=" << s.windows
       << " det_acc=" << s.detection.accuracy << " det_f1=" << s.detection.f1
       << " atk_f1=" << s.attacker_id.f1 << " first_attack=" << s.first_attack_cycle
       << " detect=" << s.detect_cycle << " mitigate=" << s.mitigate_cycle
       << " recover=" << s.recover_cycle << " baseline=" << s.baseline_latency
       << " baseline_p50=" << s.baseline_p50 << " baseline_p99=" << s.baseline_p99
       << " peak=" << s.peak_latency << " recovered=" << s.recovered_latency
       << " fences=" << s.fence_events << " false_fences=" << s.false_fence_events << '\n';
  }
  return os.str();
}

}  // namespace dl2f::runtime
