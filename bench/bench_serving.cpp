// Open-loop serving soak: the production-style SLO bench.
//
// Two arms, one shared trained snapshot (temporal head included):
//
//  1. SLO grid — a campaign over the request/reply workloads
//     ("trace-replay", "openloop-burst", "memhog") × attack families with
//     attack arrivals mid-run, re-run at 1/2/4 worker threads (byte-dump
//     identity enforced, exit 1 on divergence). Reports the serving SLO:
//       * sustained windows/s       (monitoring windows processed per
//                                    wall-second, 1-thread run)
//       * detection latency p50/p99 (cycles from first attack traffic to
//                                    the first true-positive window,
//                                    pooled over all grid jobs)
//       * false-fence rate          (false fences per monitoring window,
//                                    pooled — the SLO's cost-of-defense)
//  2. Reply-latency soak — one long single-threaded DefenseRuntime run per
//     trace workload with a static flood arriving mid-run; the workload's
//     round-trip reply histogram is phase-diffed to report baseline vs
//     under-attack/fence p50/p99 and the degradation ratio dependents
//     actually experience.
//
// Output: human-readable tables on stdout + machine-readable
// BENCH_serving.json (gated in BENCH_baseline.json: a floor on sustained
// windows/s, a ceiling on the quick-mode false-fence rate). Flags:
//   --quick    CI preset (smaller training, fewer seeds/windows)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "noc/stats.hpp"
#include "runtime/campaign.hpp"
#include "workload/families.hpp"

using namespace dl2f;

namespace {

/// Nearest-rank percentile of a sorted sample vector (empty -> -1).
double percentile_of(std::vector<double> sorted, double q) {
  if (sorted.empty()) return -1.0;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                    std::ceil(q * static_cast<double>(sorted.size())))));
  return sorted[std::min(rank, sorted.size()) - 1];
}

struct PhaseLatency {
  std::int64_t replies = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Percentiles of the histogram delta between two snapshots of the
/// workload's cumulative reply-latency histogram.
PhaseLatency phase_latency(const std::vector<std::int64_t>& before,
                           const std::vector<std::int64_t>& after, noc::Cycle overflow_max) {
  std::vector<std::int64_t> delta(after.size());
  PhaseLatency out;
  for (std::size_t i = 0; i < after.size(); ++i) {
    delta[i] = after[i] - before[i];
    out.replies += delta[i];
  }
  out.p50 = noc::histogram_percentile(delta, 0.50, static_cast<double>(overflow_max));
  out.p99 = noc::histogram_percentile(delta, 0.99, static_cast<double>(overflow_max));
  return out;
}

struct SoakResult {
  std::string workload;
  PhaseLatency baseline;
  PhaseLatency attacked;
  std::int64_t replies_completed = 0;
  std::int64_t requests_issued = 0;
  std::int64_t fences = 0;
  std::int64_t false_fences = 0;
  double degradation_p99 = 0.0;  ///< attacked p99 / baseline p99
};

/// One long DefenseRuntime run over `kind` with a static flood arriving at
/// attack_window; phases split the reply histogram at the attack boundary.
SoakResult run_soak(workload::TraceWorkloadKind kind, const core::PipelineEngine& engine,
                    const MeshShape& mesh, std::int32_t windows, std::int32_t attack_window,
                    std::uint64_t seed) {
  SoakResult out;
  out.workload = std::string(workload::to_string(kind));

  runtime::ScenarioParams params;
  params.mesh = mesh;
  params.benign = monitor::Benchmark{kind};
  runtime::DefenseConfig defense;
  params.attack_start = attack_window * defense.window_cycles;
  const runtime::CellSeeds seeds = runtime::cell_seeds(seed, "serving-soak", out.workload);
  auto scenario = runtime::ScenarioRegistry::instance().make("static", params, seeds.scenario);

  traffic::Simulation sim(noc::MeshConfig{mesh});
  scenario->install(sim, seeds.install);

  // Recover the typed workload handle the scenario installed.
  const workload::RequestReplyWorkload* wl = nullptr;
  for (const auto& gen : sim.generators()) {
    if (const auto* typed = dynamic_cast<const workload::RequestReplyWorkload*>(gen.get())) {
      wl = typed;
      break;
    }
  }
  if (wl == nullptr) {
    std::cerr << "soak: scenario did not install a RequestReplyWorkload for " << out.workload
              << "\n";
    std::exit(1);
  }

  runtime::DefenseRuntime runtime(sim, engine, defense);
  runtime.attach_scenario(scenario.get());

  std::vector<std::int64_t> hist_start(wl->reply_latency_histogram().size(), 0);
  std::vector<std::int64_t> hist_at_attack;
  noc::Cycle max_at_attack = 0;
  for (std::int32_t w = 0; w < windows; ++w) {
    if (w == attack_window) {
      hist_at_attack = wl->reply_latency_histogram();
      max_at_attack = wl->stats().reply_latency_max;
    }
    runtime.run_window();
  }
  const auto& hist_end = wl->reply_latency_histogram();
  out.baseline = phase_latency(hist_start, hist_at_attack, max_at_attack);
  out.attacked = phase_latency(hist_at_attack, hist_end, wl->stats().reply_latency_max);
  out.replies_completed = wl->stats().replies_completed;
  out.requests_issued = wl->stats().requests_issued;
  const auto summary = runtime.summarize();
  out.fences = summary.fence_events;
  out.false_fences = summary.false_fence_events;
  out.degradation_p99 = out.baseline.p99 > 0.0 ? out.attacked.p99 / out.baseline.p99 : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--quick") {
      quick = true;
    } else {
      std::cerr << "unknown flag: " << arg << " (expected --quick)\n";
      return 2;
    }
  }

  const MeshShape mesh = MeshShape::square(8);

  // Same snapshot recipe as bench_robustness: cross-workload train mix
  // (one trace family included) + temporal head over every benchmark's
  // benign rhythm, so the SLO numbers describe the shipped configuration.
  std::cout << "Training the shared model snapshot (+temporal head)...\n";
  runtime::TrainPreset preset;
  preset.temporal = true;
  preset.temporal_benigns = monitor::all_benchmarks();
  for (const auto& w : monitor::trace_benchmarks()) preset.temporal_benigns.push_back(w);
  if (quick) {
    preset.scenarios = 4;
    preset.detector_epochs = 20;
    preset.localizer_epochs = 10;
    preset.temporal_epochs = 15;
    preset.temporal_runs_per_cell = 1;
  } else {
    // Match bench_robustness's full preset (the localizer needs the extra
    // epochs to separate corner-server request hotspots from attackers —
    // mislocalization is what drives the false-fence rate).
    preset.localizer_epochs = 40;
  }
  const std::vector<monitor::Benchmark> train_mix{
      monitor::Benchmark{traffic::SyntheticPattern::UniformRandom},
      monitor::Benchmark{traffic::SyntheticPattern::Tornado},
      monitor::Benchmark{traffic::ParsecWorkload::Blackscholes},
      monitor::Benchmark{workload::TraceWorkloadKind::TraceReplay}};
  const runtime::ModelSnapshot model = runtime::train_model_snapshot(mesh, train_mix, preset);

  // ---- Arm 1: the SLO grid, byte-identical at 1/2/4 threads -------------
  runtime::CampaignConfig cfg;
  cfg.families = {"static", "pulse"};
  cfg.workloads = monitor::trace_benchmarks();
  cfg.seeds = quick ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2, 3};
  cfg.windows = quick ? 8 : 20;
  cfg.params.mesh = mesh;
  cfg.params.attack_start = 3 * cfg.defense.window_cycles;

  const auto job_count = cfg.families.size() * cfg.workloads.size() * cfg.seeds.size();
  std::cout << "\nServing SLO grid: " << cfg.families.size() << " families x "
            << cfg.workloads.size() << " trace workloads x " << cfg.seeds.size()
            << " seeds = " << job_count << " jobs, " << cfg.windows << " windows each\n";

  std::string reference;
  runtime::CampaignResult last;
  double wall_1t = 0.0;
  for (const std::int32_t threads : {1, 2, 4}) {
    cfg.threads = threads;
    const auto begin = std::chrono::steady_clock::now();
    runtime::CampaignResult result = run_campaign(cfg, model);
    const auto end = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(end - begin).count();
    if (threads == 1) wall_1t = secs;

    const std::string dump = result.serialize();
    if (reference.empty()) {
      reference = dump;
    } else if (dump != reference) {
      std::cout << "FAIL: serving campaign with " << threads
                << " threads diverged from the 1-thread run\n";
      return 1;
    }
    std::cout << threads << " thread(s): " << secs << " s (byte-identical: yes)\n";
    last = std::move(result);
  }

  const auto total_windows = static_cast<std::int64_t>(job_count) * cfg.windows;
  const double windows_per_second =
      wall_1t > 0.0 ? static_cast<double>(total_windows) / wall_1t : 0.0;

  std::vector<double> detect_latencies;
  std::int64_t fences = 0, false_fences = 0, detected_jobs = 0;
  for (const auto& job : last.jobs) {
    fences += job.summary.fence_events;
    false_fences += job.summary.false_fence_events;
    if (job.summary.detection_latency() >= 0) {
      detect_latencies.push_back(static_cast<double>(job.summary.detection_latency()));
      ++detected_jobs;
    }
  }
  const double det_p50 = percentile_of(detect_latencies, 0.50);
  const double det_p99 = percentile_of(detect_latencies, 0.99);
  const double false_fence_rate =
      static_cast<double>(false_fences) / static_cast<double>(total_windows);

  std::cout << "\nServing SLO (" << total_windows << " windows total):\n"
            << "  sustained windows/s (1 thread): " << windows_per_second << "\n"
            << "  detection latency p50/p99:      " << det_p50 << " / " << det_p99
            << " cycles (" << detected_jobs << "/" << last.jobs.size() << " jobs detected)\n"
            << "  fence events:                   " << fences << " (" << false_fences
            << " false)\n"
            << "  false-fence rate:               " << false_fence_rate << " per window\n";

  // ---- Arm 2: reply-latency degradation soak ----------------------------
  const std::int32_t soak_windows = quick ? 12 : 30;
  const std::int32_t attack_window = soak_windows / 2;
  std::cout << "\nReply-latency soak (" << soak_windows << " windows, static flood at window "
            << attack_window << "):\n";
  const core::PipelineEngine soak_engine = model.make_engine();
  std::vector<SoakResult> soaks;
  for (const auto kind : workload::kAllTraceWorkloads) {
    soaks.push_back(run_soak(kind, soak_engine, mesh, soak_windows, attack_window, 7));
    const auto& s = soaks.back();
    std::cout << "  " << s.workload << ": baseline p50/p99 " << s.baseline.p50 << "/"
              << s.baseline.p99 << ", under attack+fence " << s.attacked.p50 << "/"
              << s.attacked.p99 << " (x" << s.degradation_p99 << "), "
              << s.replies_completed << " replies, " << s.fences << " fences ("
              << s.false_fences << " false)\n";
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"serving\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"mesh\": " << mesh.rows() << ",\n"
       << "  \"families\": " << cfg.families.size() << ",\n"
       << "  \"workloads\": " << cfg.workloads.size() << ",\n"
       << "  \"seeds\": " << cfg.seeds.size() << ",\n"
       << "  \"windows\": " << cfg.windows << ",\n"
       << "  \"jobs\": " << job_count << ",\n"
       << "  \"total_windows\": " << total_windows << ",\n"
       << "  \"byte_identical_1_2_4_threads\": true,\n"
       << "  \"sustained_windows_per_second\": " << windows_per_second << ",\n"
       << "  \"detection_latency_p50_cycles\": " << det_p50 << ",\n"
       << "  \"detection_latency_p99_cycles\": " << det_p99 << ",\n"
       << "  \"detected_jobs\": " << detected_jobs << ",\n"
       << "  \"fence_events\": " << fences << ",\n"
       << "  \"false_fence_events\": " << false_fences << ",\n"
       << "  \"false_fence_rate_per_window\": " << false_fence_rate << ",\n"
       << "  \"soak\": {\n";
  for (std::size_t i = 0; i < soaks.size(); ++i) {
    const auto& s = soaks[i];
    json << "    \"" << s.workload << "\": {\"baseline_p50\": " << s.baseline.p50
         << ", \"baseline_p99\": " << s.baseline.p99 << ", \"attacked_p50\": " << s.attacked.p50
         << ", \"attacked_p99\": " << s.attacked.p99
         << ", \"degradation_p99\": " << s.degradation_p99
         << ", \"replies_completed\": " << s.replies_completed
         << ", \"requests_issued\": " << s.requests_issued << ", \"fences\": " << s.fences
         << ", \"false_fences\": " << s.false_fences << "}" << (i + 1 < soaks.size() ? "," : "")
         << "\n";
  }
  json << "  }\n}\n";

  std::ofstream out("BENCH_serving.json");
  out << json.str();
  std::cout << "\nwrote BENCH_serving.json\n";
  return 0;
}
