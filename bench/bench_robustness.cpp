// Adaptive-attacker robustness matrix: evasive FDoS families × the full
// benign-workload grid (6 synthetic patterns + 3 PARSEC workloads + 3
// request/reply families from src/workload/).
//
// Trains one model snapshot — by default including the temporal sequence
// head, adversarially retrained on the full family mix (src/temporal) —
// then sweeps a three-axis campaign (family × workload × seed); the static
// family rides along as the non-adaptive control. Results aggregate into a
// RobustnessReport: detection accuracy/F1, localization F1,
// time-to-mitigate and recovery per (family × workload) cell, with the
// blind-spot list as the headline artifact.
//
// The campaign is re-run at 1/2/4 worker threads and the process exits
// non-zero if any width diverges from the 1-thread byte dump (the
// determinism contract now spans the three-axis grid).
//
// Output: human-readable matrix + per-cell table on stdout, plus
// machine-readable BENCH_robustness.json. Flags:
//   --quick               CI preset (smaller training, 1 seed, 6 windows)
//   --no-temporal         single-window detector only (the pre-temporal
//                         baseline; reproduces the original blind spots)
//   --families=a,b,...    run only these scenario families
//   --workloads=a,b,...   run only these benign workloads (by name)
// The family/workload filters reproduce one matrix cell without paying
// for the full 5x12 sweep. DL2F_BENCH_SCALE=paper widens the seed axis.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/robustness.hpp"

using namespace dl2f;

namespace {

std::vector<std::string> split_csv(std::string_view csv) {
  std::vector<std::string> out;
  while (!csv.empty()) {
    const auto comma = csv.find(',');
    const auto item = csv.substr(0, comma);
    if (!item.empty()) out.emplace_back(item);
    if (comma == std::string_view::npos) break;
    csv.remove_prefix(comma + 1);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool temporal = true;
  std::vector<std::string> family_filter;
  std::vector<std::string> workload_filter;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--no-temporal") {
      temporal = false;
    } else if (arg.starts_with("--families=")) {
      family_filter = split_csv(arg.substr(std::string_view("--families=").size()));
    } else if (arg.starts_with("--workloads=")) {
      workload_filter = split_csv(arg.substr(std::string_view("--workloads=").size()));
    } else {
      std::cerr << "unknown flag: " << arg
                << " (expected --quick, --no-temporal, --families=..., --workloads=...)\n";
      return 2;
    }
  }
  const char* scale = std::getenv("DL2F_BENCH_SCALE");
  const bool paper = scale != nullptr && std::string_view(scale) == "paper";

  const MeshShape mesh = MeshShape::square(8);

  // Grid axes, before filtering: static control + the evasive families,
  // against every benchmark workload.
  std::vector<std::string> families = {"static"};
  for (const auto& f : runtime::evasive_scenario_families()) families.push_back(f);
  std::vector<monitor::Benchmark> workloads = monitor::all_benchmarks();
  for (const auto& w : monitor::trace_benchmarks()) workloads.push_back(w);

  if (!family_filter.empty()) {
    for (const auto& f : family_filter) {
      if (std::find(families.begin(), families.end(), f) == families.end()) {
        std::cerr << "--families: unknown family '" << f << "' (have:";
        for (const auto& known : families) std::cerr << ' ' << known;
        std::cerr << ")\n";
        return 2;
      }
    }
    families = family_filter;
  }
  if (!workload_filter.empty()) {
    std::vector<monitor::Benchmark> picked;
    for (const auto& name : workload_filter) {
      const auto it = std::find_if(workloads.begin(), workloads.end(),
                                   [&](const auto& w) { return w.name() == name; });
      if (it == workloads.end()) {
        std::cerr << "--workloads: unknown workload '" << name << "' (have:";
        for (const auto& w : workloads) std::cerr << ' ' << w.name();
        std::cerr << ")\n";
        return 2;
      }
      picked.push_back(*it);
    }
    workloads = std::move(picked);
  }

  // One snapshot for the whole matrix, trained across a workload mix so
  // the model has seen synthetic and PARSEC-like statistics (training on
  // one pattern and scoring on nine would measure transfer, not
  // robustness). The temporal head trains on the adversarial sequence
  // grid over the same mix.
  std::cout << "Training the shared model snapshot" << (temporal ? " (+temporal head)" : "")
            << "...\n";
  runtime::TrainPreset preset;
  preset.temporal = temporal;
  // The sequence head must see every workload's benign rhythm — always the
  // full benchmark list (trace families included), independent of
  // --workloads filtering, so a filtered run reproduces the full run's
  // snapshot bit-for-bit.
  preset.temporal_benigns = monitor::all_benchmarks();
  for (const auto& w : monitor::trace_benchmarks()) preset.temporal_benigns.push_back(w);
  if (quick) {
    preset.scenarios = 4;
    preset.detector_epochs = 20;
    preset.localizer_epochs = 10;
    preset.temporal_epochs = 15;
    preset.temporal_runs_per_cell = 1;
  } else {
    // The 12-workload matrix (trace families included) spans two traffic
    // regimes — diffuse synthetic/PARSEC load vs corner-server
    // request/reply hotspots — so the full preset buys the base detector
    // a larger scenario pool to separate them without giving up the
    // static control row.
    preset.localizer_epochs = 40;
  }
  const std::vector<monitor::Benchmark> train_mix{
      monitor::Benchmark{traffic::SyntheticPattern::UniformRandom},
      monitor::Benchmark{traffic::SyntheticPattern::Tornado},
      monitor::Benchmark{traffic::ParsecWorkload::Blackscholes},
      // One request/reply workload so the single-window detector has seen
      // benign server-corner hotspotting (the trace families' signature).
      monitor::Benchmark{workload::TraceWorkloadKind::TraceReplay}};
  const runtime::ModelSnapshot model = runtime::train_model_snapshot(mesh, train_mix, preset);

  runtime::CampaignConfig cfg;
  cfg.families = families;
  cfg.workloads = workloads;
  cfg.seeds = paper   ? std::vector<std::uint64_t>{1, 2, 3, 4}
              : quick ? std::vector<std::uint64_t>{1}
                      : std::vector<std::uint64_t>{1, 2, 3};
  cfg.windows = quick ? 6 : 12;
  cfg.params.mesh = mesh;
  cfg.params.attack_start = 3 * cfg.defense.window_cycles;

  std::vector<std::string> workload_names;
  for (const auto& w : workloads) workload_names.push_back(w.name());

  const auto job_count = cfg.families.size() * cfg.workloads.size() * cfg.seeds.size();
  std::cout << "Robustness grid: " << cfg.families.size() << " families x "
            << cfg.workloads.size() << " workloads x " << cfg.seeds.size() << " seeds = "
            << job_count << " jobs, " << cfg.windows << " windows each\n\n";

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
      std::cout << "FAIL: three-axis campaign with " << threads
                << " threads diverged from the 1-thread run\n";
      return 1;
    }
    std::cout << threads << " thread(s): " << secs << " s (byte-identical: yes)\n";
    last = std::move(result);
  }

  const auto report =
      runtime::RobustnessReport::from_campaign(last, cfg.families, workload_names);

  std::cout << "\nDetection F1, family x workload (the blind-spot matrix):\n"
            << report.detection_matrix() << '\n'
            << "Per-cell robustness:\n"
            << report.table() << '\n';

  const auto blind = report.blind_spots(0.5);
  std::cout << blind.size() << " blind spot(s) (detection F1 < 0.5):\n";
  for (const auto* c : blind) {
    std::cout << "  " << c->family << " on " << c->workload << " (F1 "
              << TextTable::cell(c->detection_f1, 2) << ")\n";
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"robustness\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"temporal\": " << (temporal ? "true" : "false") << ",\n"
       << "  \"mesh\": " << mesh.rows() << ",\n"
       << "  \"seeds\": " << cfg.seeds.size() << ",\n"
       << "  \"windows\": " << cfg.windows << ",\n"
       << "  \"jobs\": " << job_count << ",\n"
       << "  \"wall_seconds_1_thread\": " << wall_1t << ",\n"
       << "  \"blind_spots\": " << blind.size() << ",\n"
       << "  \"report\": " << report.to_json() << "\n"
       << "}\n";

  std::ofstream out("BENCH_robustness.json");
  out << json.str();
  std::cout << "\nwrote BENCH_robustness.json (" << report.cells().size() << " cells, "
            << blind.size() << " blind spots)\n";
  return 0;
}
