// The defense-loop benchmark program: one workload per invocation.
//
// End-to-end numbers come from an untraced run through the library's real
// entry points (runtime::DefenseRuntime::run_window for the closed loops,
// core::score_benchmark for the batch scorer). Per-layer numbers come from
// a second, traced replay in the same process that calls each module's
// public functions from here and times them: traffic generation, mesh
// stepping, feature sampling, detection, localization, fence application.
// The replay copies no defense policy: it re-applies the fence set the
// untraced run recorded for each window, so the simulated trajectory is
// identical, and it checks that against the recorded window (detector
// probability, sequence probability, benign packets, attackers named).
//
//   perfbench_suite --prepare --models DIR [--smoke]
//       trains every model recipe once and stores the weights in DIR
//   perfbench_suite --workload NAME --seed N --seconds S --trace 0|1
//                   --models DIR [--out DIR] [--smoke]
//       runs one workload and prints the result as the last stdout line:
//       {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Training is the prepare step (cached next to the build), not set-up: a
// deployed defense loads trained weights. setup_s is what a run pays before
// its first timed window: weights -> engine, simulation + scenario (loops)
// or the held-out window set (scorer).
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/cpuid.hpp"
#include "common/rng.hpp"
#include "core/evaluation.hpp"
#include "monitor/dataset.hpp"
#include "monitor/window_history.hpp"
#include "nn/layers.hpp"
#include "noc/stats.hpp"
#include "runtime/campaign.hpp"
#include "runtime/defense.hpp"
#include "temporal/features.hpp"
#include "workload/endpoint.hpp"

#ifndef DL2F_PERFBENCH_BUILD_TYPE
#define DL2F_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace dl2f;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// --------------------------------------------------- host-speed standard

/// Every reported host time is standardized to one host speed. A shared
/// host's effective core speed swings by up to 2x in phases of tens of
/// seconds (neighbours' load), which no statistic inside a run can undo.
/// So each timed interval is bracketed by timings of a fixed integer loop,
/// and the interval is scaled by kNominalSeconds / (loop time measured
/// around it): a standardized second is a second on a host that runs the
/// loop in kNominalSeconds (the reference host's unloaded speed). Raw times stay
/// in the trace files next to their factor.
namespace reference {

constexpr double kNominalSeconds = 0.0005;
constexpr long kIterations = 375000;

/// Best of three timings of the reference loop, in seconds.
double probe() {
  static volatile std::uint64_t sink = 1;
  double best = 1e9;
  for (int k = 0; k < 3; ++k) {
    std::uint64_t y = sink;
    const auto t0 = Clock::now();
    for (long i = 0; i < kIterations; ++i) y = y * 6364136223846793005ULL + 1442695040888963407ULL;
    best = std::min(best, seconds_since(t0));
    sink = y;
  }
  return best;
}

/// Factor turning raw seconds measured between two probes into
/// standardized seconds.
double factor(double before, double after) { return kNominalSeconds / ((before + after) / 2); }

}  // namespace reference

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}
double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// FNV-1a over raw bytes: run-to-run identity checks of records/datasets.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  void frames(const monitor::DirectionalFrames& f) {
    for (const Frame& fr : f) vec(fr.data());
  }
};

std::uint64_t record_digest(const runtime::WindowRecord& r) {
  Digest d;
  d.pod(r.index);
  d.pod(r.start);
  d.pod(r.end);
  d.pod(r.detected);
  d.pod(r.probability);
  d.pod(r.sequence_probability);
  d.vec(r.tlm_attackers);
  d.vec(r.newly_quarantined);
  d.vec(r.released);
  d.vec(r.quarantined);
  d.pod(r.benign_latency);
  d.pod(r.benign_p50);
  d.pod(r.benign_p99);
  d.pod(r.benign_packets);
  d.pod(r.truth_attack);
  d.vec(r.truth_attackers);
  return d.h;
}

std::uint64_t sample_digest(const monitor::FrameSample& s) {
  Digest d;
  d.frames(s.vco);
  d.frames(s.boc);
  d.vec(s.ni_load);
  d.pod(s.window_cycles);
  d.pod(s.under_attack);
  d.frames(s.port_truth);
  d.vec(s.victim_truth);
  return d.h;
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof(float)) == 0; }
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// --------------------------------------------------------- model recipes

/// A training recipe. Its seed is fixed: the workload seed drives only
/// the inputs, so every seed measures the same program.
struct Recipe {
  std::string_view name;
  std::int32_t mesh;
  bool temporal;
};
constexpr Recipe kShipped8{"shipped8", 8, true};
constexpr Recipe kPaper16{"paper16", 16, false};
constexpr std::array<Recipe, 2> kRecipes{kShipped8, kPaper16};

runtime::TrainPreset preset_for(const Recipe& r, bool smoke) {
  runtime::TrainPreset p;
  if (r.temporal) {
    // bench_serving --quick: the shipped configuration (detector +
    // localizer + temporal head over every benchmark's benign rhythm).
    p.temporal = true;
    p.temporal_benigns = monitor::all_benchmarks();
    for (const auto& w : monitor::trace_benchmarks()) p.temporal_benigns.push_back(w);
    p.scenarios = 4;
    p.detector_epochs = 20;
    p.localizer_epochs = 10;
    p.temporal_epochs = 15;
    p.temporal_runs_per_cell = 1;
  }
  if (smoke) {
    p.scenarios = 2;
    p.detector_epochs = 2;
    p.localizer_epochs = 1;
    p.temporal_epochs = 1;
    p.temporal_runs_per_cell = 1;
    p.temporal_windows_per_run = 6;
    p.adversarial_families = {"static", "pulse"};
    p.temporal_benigns = {monitor::Benchmark{traffic::SyntheticPattern::UniformRandom}};
  }
  return p;
}

std::vector<monitor::Benchmark> train_mix(const Recipe& r, bool smoke) {
  if (r.temporal) {
    return {monitor::Benchmark{traffic::SyntheticPattern::UniformRandom},
            monitor::Benchmark{traffic::SyntheticPattern::Tornado},
            monitor::Benchmark{traffic::ParsecWorkload::Blackscholes},
            monitor::Benchmark{workload::TraceWorkloadKind::TraceReplay}};
  }
  if (smoke) return {monitor::stp_benchmarks().front()};
  return monitor::stp_benchmarks();
}

/// The architecture train_model_snapshot builds for a recipe.
core::Dl2FenceConfig config_for(const Recipe& r) {
  core::Dl2FenceConfig cfg = core::Dl2FenceConfig::paper_default(MeshShape::square(r.mesh));
  cfg.enable_temporal = r.temporal;
  cfg.temporal.sequence_length = runtime::TrainPreset{}.sequence_length;
  return cfg;
}

std::filesystem::path model_path(const std::filesystem::path& dir, const Recipe& r) {
  return dir / (std::string(r.name) + ".weights");
}

constexpr std::string_view kModelMagic = "dl2f-perfbench-weights-v1\n";

void write_blob(std::ostream& os, const std::string& blob) {
  const auto n = static_cast<std::uint64_t>(blob.size());
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

std::string read_blob(std::istream& is) {
  std::uint64_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!is || n > (std::uint64_t{1} << 30)) throw std::runtime_error("truncated weights file");
  std::string blob(static_cast<std::size_t>(n), '\0');
  is.read(blob.data(), static_cast<std::streamsize>(n));
  if (!is) throw std::runtime_error("truncated weights file");
  return blob;
}

/// Trained weights of one recipe, as bytes; make_engine() is the set-up
/// step every run repeats.
struct Model {
  runtime::ModelSnapshot snapshot;

  static Model load(const std::filesystem::path& dir, const Recipe& r) {
    std::ifstream is(model_path(dir, r), std::ios::binary);
    std::string magic(kModelMagic.size(), '\0');
    is.read(magic.data(), static_cast<std::streamsize>(magic.size()));
    if (!is || magic != kModelMagic) {
      throw std::runtime_error("missing or stale weights " + model_path(dir, r).string() +
                               " (run --prepare)");
    }
    Model m;
    m.snapshot.config = config_for(r);
    m.snapshot.detector_weights = read_blob(is);
    m.snapshot.localizer_weights = read_blob(is);
    m.snapshot.temporal_weights = read_blob(is);
    return m;
  }

  [[nodiscard]] std::string hash() const {
    Digest d;
    for (const std::string* blob :
         {&snapshot.detector_weights, &snapshot.localizer_weights, &snapshot.temporal_weights}) {
      d.pod(blob->size());
      d.bytes(blob->data(), blob->size());
    }
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << d.h;
    return os.str();
  }
};

int prepare(const std::filesystem::path& dir, bool smoke) {
  std::filesystem::create_directories(dir);
  for (const Recipe& r : kRecipes) {
    const auto t0 = Clock::now();
    const runtime::ModelSnapshot snap = runtime::train_model_snapshot(
        MeshShape::square(r.mesh), train_mix(r, smoke), preset_for(r, smoke));
    const auto tmp = model_path(dir, r).string() + ".tmp";
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      os.write(kModelMagic.data(), static_cast<std::streamsize>(kModelMagic.size()));
      write_blob(os, snap.detector_weights);
      write_blob(os, snap.localizer_weights);
      write_blob(os, snap.temporal_weights);
      if (!os) throw std::runtime_error("cannot write " + tmp);
    }
    std::filesystem::rename(tmp, model_path(dir, r));
    std::cout << "trained " << r.name << " in " << seconds_since(t0) << " s\n";
  }
  return 0;
}

// ------------------------------------------------------------- workloads

/// One benchmark workload. A loop run deploys the defense on `scenarios`
/// attack placements drawn from the seed (one placement's cost and quality
/// vary too much to stand for a seed) and runs `episode_windows` 1000-cycle
/// windows on each, attack from window `attack_window` on (FIR 0.8, 2
/// attackers). The loop is closed: window w+1 starts only after window w's
/// verdict and fence actions.
struct Workload {
  std::string_view name;
  bool loop;
  const Recipe* recipe;
  std::string_view family;     ///< scenario family (loops)
  monitor::Benchmark benign;   ///< benign traffic (loops)
  std::int32_t scenarios;      ///< attack placements per run (loops)
  std::int32_t episode_windows;
  std::int32_t shards;         ///< Mesh::step row bands (loops)
  std::int32_t step_threads;   ///< Mesh::step threads (loops)
};

const std::array<Workload, 4>& workloads() {
  static const std::array<Workload, 4> table{{
      {"loop8-static", true, &kShipped8, "static",
       monitor::Benchmark{traffic::SyntheticPattern::UniformRandom}, 12, 30, 1, 1},
      {"loop8-burst", true, &kShipped8, "pulse",
       monitor::Benchmark{workload::TraceWorkloadKind::OpenLoopBurst}, 12, 30, 1, 1},
      {"loop16-paper", true, &kPaper16, "static",
       monitor::Benchmark{traffic::SyntheticPattern::UniformRandom}, 6, 20, 2, 1},
      {"score16-paper", false, &kPaper16, "", monitor::Benchmark{}, 0, 0, 0, 0},
  }};
  return table;
}

constexpr std::int64_t kWindowCycles = 1000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::filesystem::path models;
  std::filesystem::path out;
};

std::int32_t attack_window(const Options& o) { return o.smoke ? 3 : 5; }
std::int32_t episode_windows(const Workload& wl, const Options& o) {
  return o.smoke ? attack_window(o) + 5 : wl.episode_windows;
}
std::int32_t scenario_count(const Workload& wl, const Options& o) {
  return o.smoke ? 1 : wl.scenarios;
}

// ------------------------------------------------------------- the trace

/// Layers a traced window's time is attributed to (module names of src/).
enum LayerId : std::uint8_t { kTraffic, kNoc, kMonitor, kDetect, kLocalize, kRuntime, kLayers };
constexpr std::array<std::string_view, kLayers> kLayerNames{
    "traffic", "noc", "monitor", "core.detect", "core.localize", "runtime"};

struct LayerTime {
  std::int64_t busy_ns = 0;
  std::int64_t calls = 0;
};

/// One traced unit (a loop window, a generated scenario run, a scoring
/// pass) with per-layer busy time; self time = span - sum of children.
/// Times are raw; `speed` is the standardization factor measured around
/// the span (see `reference`).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::array<LayerTime, kLayers> layers{};
  double speed = 1.0;
};

struct Trace {
  Clock::time_point origin = Clock::now();
  std::vector<Span> spans;

  Span& open(std::string name) {
    spans.push_back(Span{std::move(name), ns_between(origin, Clock::now()), 0, {}, 1.0});
    return spans.back();
  }
  void close(Span& s) { s.end_ns = ns_between(origin, Clock::now()); }
  /// Set the standardization factor of the spans opened since `first`.
  void set_speed(std::size_t first, double speed) {
    for (std::size_t i = first; i < spans.size(); ++i) spans[i].speed = speed;
  }

  /// Standardized seconds covered by the spans.
  [[nodiscard]] double wall_s() const {
    double t = 0.0;
    for (const Span& s : spans) t += static_cast<double>(s.end_ns - s.start_ns) * s.speed;
    return t / 1e9;
  }
  /// Standardized busy seconds of one layer.
  [[nodiscard]] double busy_s(LayerId id) const {
    double t = 0.0;
    for (const Span& s : spans) t += static_cast<double>(s.layers[id].busy_ns) * s.speed;
    return t / 1e9;
  }
  [[nodiscard]] double busy_s() const {
    double t = 0.0;
    for (std::size_t l = 0; l < kLayers; ++l) t += busy_s(static_cast<LayerId>(l));
    return t;
  }
  [[nodiscard]] std::int64_t calls(LayerId id) const {
    std::int64_t n = 0;
    for (const Span& s : spans) n += s.layers[id].calls;
    return n;
  }

  void write(std::ostream& os) const {
    os << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::int64_t children = 0;
      os << "  {\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
         << ", \"end_ns\": " << s.end_ns << ", \"layers\": {";
      for (std::size_t l = 0; l < kLayers; ++l) {
        children += s.layers[l].busy_ns;
        os << (l ? ", " : "") << "\"" << kLayerNames[l] << "\": {\"busy_ns\": "
           << s.layers[l].busy_ns << ", \"calls\": " << s.layers[l].calls << "}";
      }
      os << "}, \"self_ns\": " << (s.end_ns - s.start_ns - children)
         << ", \"speed\": " << s.speed << "}"
         << (i + 1 < spans.size() ? "," : "") << "\n";
    }
    os << "]}\n";
  }
};

/// Time fn() into one layer of a span.
template <typename Fn>
decltype(auto) timed(Span& span, LayerId id, Fn&& fn) {
  struct Guard {
    Span& span;
    LayerId id;
    Clock::time_point t0 = Clock::now();
    ~Guard() {
      span.layers[id].busy_ns += ns_between(t0, Clock::now());
      ++span.layers[id].calls;
    }
  } guard{span, id};
  return fn();
}

// --------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable detail lines

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), std::isfinite(value) ? value : 0.0, std::move(unit)});
  }
};

/// Peak resident set of this process image (VmHWM; getrusage's ru_maxrss
/// would report the launching process's peak, which survives exec).
double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string key;
  while (is >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      is >> kib;
      return kib / 1024.0;
    }
    is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

// ----------------------------------------------- NN layers, bench-owned

/// FLOPs of one layer for one sample (mul and add counted separately, as
/// bench_inference counts them; activations and pooling count 0).
std::int64_t layer_flops(const nn::Layer& layer, const nn::Tensor3& in) {
  const nn::Tensor3 out = layer.output_shape(in);
  if (const auto* conv = dynamic_cast<const nn::Conv2D*>(&layer)) {
    return 2LL * conv->in_channels() * conv->kernel() * conv->kernel() * out.channels() *
           out.height() * out.width();
  }
  if (const auto* dense = dynamic_cast<const nn::Dense*>(&layer)) {
    return 2LL * dense->in_features() * dense->out_features();
  }
  return 0;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Time every layer's infer_batch on bench-owned buffers holding a staged
/// batch; the last buffer must equal Sequential::infer_batch bitwise.
/// Reports microseconds per window (`windows_per_call` windows per call)
/// and GFLOP/s for layers that do arithmetic.
bool time_layers(const nn::Sequential& model, const nn::Tensor3& input_shape,
                 const nn::Tensor4& staged, std::int32_t windows_per_call, double seconds,
                 const std::string& prefix, Result& out) {
  const std::int32_t batch = staged.batch();
  nn::InferenceContext ctx;
  ctx.bind(model, input_shape, batch);
  ctx.input(batch).data() = staged.data();
  const nn::Tensor4& expected = model.infer_batch(ctx);

  std::vector<nn::Tensor4> acts;
  acts.push_back(staged);
  std::vector<nn::Tensor3> shapes{input_shape};
  std::size_t scratch_floats = 0;
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    scratch_floats = std::max(scratch_floats, model.layer(l).infer_scratch_floats(shapes.back()));
    shapes.push_back(model.layer(l).output_shape(shapes.back()));
    acts.emplace_back(batch, shapes.back().channels(), shapes.back().height(),
                      shapes.back().width());
  }
  common::aligned_vector<float> scratch(scratch_floats + 16, 0.0F);

  const double per_layer_budget = seconds / static_cast<double>(model.layer_count());
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    const nn::Layer& layer = model.layer(l);
    std::vector<double> call_us;
    const double before = reference::probe();
    const auto t_layer = Clock::now();
    while (call_us.size() < 5 || (seconds_since(t_layer) < per_layer_budget && call_us.size() < 20000)) {
      const auto t0 = Clock::now();
      layer.infer_batch(acts[l], acts[l + 1], scratch.data());
      call_us.push_back(static_cast<double>(ns_between(t0, Clock::now())) / 1e3);
    }
    const double us = median(call_us) * reference::factor(before, reference::probe());
    const std::string key = prefix + std::to_string(l) + "_" + lower(layer.name());
    out.add(key + ".us", us / windows_per_call, "us");
    const std::int64_t flops = layer_flops(layer, shapes[l]);
    if (flops > 0) out.add(key + ".gflops", static_cast<double>(flops) * batch / (us * 1e3), "GFLOP/s");
  }
  return acts.back().size() == expected.size() &&
         std::memcmp(acts.back().data().data(), expected.data().data(),
                     expected.size() * sizeof(float)) == 0;
}

/// Per-layer NN timing for one engine: detector at batch 32 (windows),
/// localizer at batch 4 (one window's four directional frames).
bool time_nn(const core::PipelineEngine& engine, const std::vector<monitor::FrameSample>& windows,
             const monitor::FrameSample& localized, double seconds, Result& out) {
  const core::DoSDetector& det = engine.detector();
  const auto batch = static_cast<std::int32_t>(windows.size());
  const nn::Tensor3 dshape = det.input_shape();
  nn::Tensor4 dstaged(batch, dshape.channels(), dshape.height(), dshape.width());
  for (std::int32_t i = 0; i < batch; ++i) {
    det.preprocess_into(windows[static_cast<std::size_t>(i)], dstaged, i);
  }
  const core::DoSLocalizer& loc = engine.localizer();
  const nn::Tensor3 lshape = loc.input_shape();
  const auto dirs = static_cast<std::int32_t>(kNumMeshDirections);
  nn::Tensor4 lstaged(dirs, lshape.channels(), lshape.height(), lshape.width());
  const auto& frames =
      engine.config().localizer.feature == core::Feature::Vco ? localized.vco : localized.boc;
  for (std::int32_t d = 0; d < dirs; ++d) {
    loc.preprocess_into(frames[static_cast<std::size_t>(d)], lstaged, d);
  }
  const bool det_ok =
      time_layers(det.model(), dshape, dstaged, batch, seconds / 2, "nn.detector.", out);
  const bool loc_ok = time_layers(loc.model(), lshape, lstaged, 1, seconds / 2, "nn.localizer.", out);
  return det_ok && loc_ok;
}

/// Per-layer metrics of a trace: simulation layers per simulated window,
/// pipeline layers per scored window, in standardized time.
void add_layer_metrics(const Trace& trace, double sim_windows, double scored_windows,
                       std::int64_t flit_cycles, std::int64_t packets_ejected, Result& res) {
  const double noc_s = trace.busy_s(kNoc);
  res.add("traffic.tick_ms", trace.busy_s(kTraffic) * 1e3 / sim_windows, "ms");
  res.add("noc.step_ms", noc_s * 1e3 / sim_windows, "ms");
  res.add("noc.ns_per_flit_cycle",
          flit_cycles > 0 ? noc_s * 1e9 / static_cast<double>(flit_cycles) : 0.0, "ns");
  res.add("noc.flit_cycles", static_cast<double>(flit_cycles) / sim_windows, "count");
  res.add("noc.packets_ejected", static_cast<double>(packets_ejected) / sim_windows, "count");
  res.add("monitor.sample_us", trace.busy_s(kMonitor) * 1e6 / sim_windows, "us");
  res.add("core.detect_us", trace.busy_s(kDetect) * 1e6 / scored_windows, "us");
  res.add("core.localize_us", trace.busy_s(kLocalize) * 1e6 / scored_windows, "us");
  res.add("core.localize_calls", static_cast<double>(trace.calls(kLocalize)) / scored_windows,
          "count");
  res.add("trace.coverage_frac", trace.busy_s() / trace.wall_s(), "ratio");
}

// ----------------------------------------------------------- closed loops

/// Everything one closed-loop deployment owns, built in set-up order:
/// weights -> engine, scenario, simulation with the scenario installed.
struct LoopRig {
  core::PipelineEngine engine;
  std::unique_ptr<runtime::Scenario> scenario;
  traffic::Simulation sim;

  LoopRig(const Workload& wl, const Model& model, const Options& o, std::int32_t placement)
      : engine(model.snapshot.make_engine()), sim(mesh_config(wl, model)) {
    runtime::ScenarioParams params;
    params.mesh = sim.mesh().shape();
    params.benign = wl.benign;
    params.fir = 0.8;
    params.num_attackers = 2;
    params.attack_start = attack_window(o) * kWindowCycles;
    const std::uint64_t job_seed = mix64(o.seed ^ fnv1a(wl.name) ^ mix64(placement));
    scenario = runtime::ScenarioRegistry::instance().make(wl.family, params, job_seed);
    if (scenario == nullptr) throw std::runtime_error("unknown scenario family");
    scenario->install(sim, mix64(job_seed ^ 0x5eedULL));
  }

  static noc::MeshConfig mesh_config(const Workload& wl, const Model& model) {
    noc::MeshConfig cfg;
    cfg.shape = model.snapshot.config.detector.mesh;
    cfg.shards = wl.shards;
    cfg.step_threads = wl.step_threads;
    return cfg;
  }

  [[nodiscard]] const workload::RequestReplyWorkload* reply_workload() const {
    for (const auto& gen : sim.generators()) {
      if (const auto* w = dynamic_cast<const workload::RequestReplyWorkload*>(gen.get())) return w;
    }
    return nullptr;
  }
};

/// p99 of the reply-latency histogram delta between two snapshots.
double phase_p99(const std::vector<std::int64_t>& before, const std::vector<std::int64_t>& after,
                 noc::Cycle overflow_max) {
  std::vector<std::int64_t> delta(after.size(), 0);
  for (std::size_t i = 0; i < after.size(); ++i) {
    delta[i] = after[i] - (i < before.size() ? before[i] : 0);
  }
  return noc::histogram_percentile(delta, 0.99, static_cast<double>(overflow_max));
}

struct Episode {
  double setup_s = 0.0;
  std::vector<double> window_s;
  std::vector<runtime::WindowRecord> history;
  runtime::DefenseSummary summary;
  double reply_degradation = 0.0;  ///< attacked / baseline reply p99 (0 without replies)
};

Episode run_episode(const Workload& wl, const Model& model, const Options& o,
                    std::int32_t placement) {
  Episode ep;
  const double before = reference::probe();
  const auto t0 = Clock::now();
  LoopRig rig(wl, model, o, placement);
  runtime::DefenseRuntime defense(rig.sim, rig.engine);
  defense.attach_scenario(rig.scenario.get());
  ep.setup_s = seconds_since(t0);

  const workload::RequestReplyWorkload* replies = rig.reply_workload();
  std::vector<std::int64_t> hist_at_attack;
  noc::Cycle max_at_attack = 0;
  const std::int32_t windows = episode_windows(wl, o);
  ep.window_s.reserve(static_cast<std::size_t>(windows));
  for (std::int32_t w = 0; w < windows; ++w) {
    if (replies != nullptr && w == attack_window(o)) {
      hist_at_attack = replies->reply_latency_histogram();
      max_at_attack = replies->stats().reply_latency_max;
    }
    const auto tw = Clock::now();
    defense.run_window();
    ep.window_s.push_back(seconds_since(tw));
  }
  const double speed = reference::factor(before, reference::probe());
  ep.setup_s *= speed;
  for (double& t : ep.window_s) t *= speed;
  ep.history = defense.history();
  ep.summary = defense.summarize();
  if (replies != nullptr) {
    const double base = phase_p99({}, hist_at_attack, max_at_attack);
    const double attacked = phase_p99(hist_at_attack, replies->reply_latency_histogram(),
                                      replies->stats().reply_latency_max);
    ep.reply_degradation = base > 0.0 ? attacked / base : 0.0;
  }
  return ep;
}

struct ReplayOutcome {
  std::int64_t windows = 0;
  std::int64_t parity_failures = 0;
  std::int64_t flit_cycles = 0;
  std::int64_t packets_ejected = 0;
  std::int64_t sequence_calls = 0;
  std::int64_t localize_on_attack = 0;
  std::vector<monitor::FrameSample> nn_windows;  ///< last windows, for the NN timing
  std::optional<monitor::FrameSample> nn_localized;
};

/// Traced replay of one episode from its recorded history (see the file
/// header). Appends one span per window to `trace`, counts into `out`.
void replay_episode(const Workload& wl, const Model& model, const Options& o,
                    std::int32_t placement, const std::vector<runtime::WindowRecord>& records,
                    Trace& trace, ReplayOutcome& out) {
  const double before = reference::probe();
  const std::size_t first_span = trace.spans.size();
  LoopRig rig(wl, model, o, placement);
  noc::Mesh& mesh = rig.sim.mesh();
  // The runtime's window-0 reset (DefenseRuntime's constructor).
  mesh.reset_telemetry();
  mesh.benign_stats().reset_window_max();

  const core::PipelineEngine& engine = rig.engine;
  const bool temporal = engine.has_temporal();
  const temporal::TemporalDetectorConfig& tcfg = engine.config().temporal;
  const monitor::FeatureSampler sampler(mesh.shape());
  monitor::WindowHistory history(temporal ? tcfg.sequence_length : 1);
  core::PipelineSession session(engine, 1);
  runtime::Scenario& scenario = *rig.scenario;
  const auto& generators = rig.sim.generators();
  const auto nodes = mesh.shape().node_count();

  std::int64_t prev_benign = mesh.benign_stats().packets_ejected();
  std::int64_t prev_ejected = mesh.stats().packets_ejected();
  std::vector<NodeId> active;
  for (const runtime::WindowRecord& rec : records) {
    Span& span = trace.open("window " + std::to_string(rec.index));
    bool ok = true;

    if (rec.index > 0) {
      const auto& fenced = records[static_cast<std::size_t>(rec.index - 1)].quarantined;
      timed(span, kRuntime, [&] {
        for (NodeId n = 0; n < nodes; ++n) {
          const bool want = std::binary_search(fenced.begin(), fenced.end(), n);
          if (mesh.quarantined(n) != want) mesh.set_quarantined(n, want);
        }
      });
    }

    active.clear();
    ok &= mesh.now() == rec.start;
    for (std::int64_t c = 0; c < kWindowCycles; ++c) {
      const auto t0 = Clock::now();
      scenario.on_cycle(mesh.now());
      for (const NodeId a : scenario.active_attackers(mesh.now())) {
        if (std::find(active.begin(), active.end(), a) == active.end()) active.push_back(a);
      }
      for (const auto& gen : generators) gen->tick(mesh);
      const auto t1 = Clock::now();
      mesh.step();
      const auto t2 = Clock::now();
      span.layers[kTraffic].busy_ns += ns_between(t0, t1);
      span.layers[kNoc].busy_ns += ns_between(t1, t2);
      out.flit_cycles += mesh.flits_in_network();
    }
    span.layers[kTraffic].calls += kWindowCycles;
    span.layers[kNoc].calls += kWindowCycles;

    timed(span, kMonitor, [&] {
      monitor::FrameSample s;
      s.vco = sampler.sample_vco(mesh, /*reset=*/true);
      s.boc = sampler.sample_boc(mesh, /*reset=*/true);
      s.ni_load = sampler.sample_ni_load(mesh, /*reset=*/true);
      s.window_cycles = kWindowCycles;
      history.push(std::move(s));
    });
    const monitor::FrameSample& latest = history.latest();

    float sequence_probability = 0.0F;
    const float probability = timed(span, kDetect, [&] {
      const float p = session.detect_batch(monitor::WindowBatch(&latest, 1))[0];
      if (temporal && rec.sequence_probability != 0.0F) {
        sequence_probability = session.detect_sequence(history.view());
        ++out.sequence_calls;
      }
      return p;
    });
    ok &= same_bits(probability, rec.probability);
    ok &= same_bits(sequence_probability, rec.sequence_probability);

    if (rec.detected) {
      std::vector<NodeId> named = timed(span, kLocalize, [&] {
        std::vector<NodeId> attackers = session.localize(latest).tlm.attackers;
        if (temporal && sequence_probability > tcfg.threshold) {
          const auto suspects = temporal::source_suspects(history.view(), tcfg.mesh, tcfg.suspects);
          std::vector<NodeId> merged;
          std::set_union(attackers.begin(), attackers.end(), suspects.begin(), suspects.end(),
                         std::back_inserter(merged));
          attackers = std::move(merged);
        }
        return attackers;
      });
      ok &= named == rec.tlm_attackers;
      if (rec.truth_attack) ++out.localize_on_attack;
      out.nn_localized = latest;
    }
    trace.close(span);

    std::sort(active.begin(), active.end());
    std::vector<NodeId> truth;
    for (const NodeId a : active) {
      if (!mesh.quarantined(a)) truth.push_back(a);
    }
    ok &= truth == rec.truth_attackers && mesh.now() == rec.end;
    const std::int64_t benign = mesh.benign_stats().packets_ejected();
    ok &= benign - prev_benign == rec.benign_packets;
    prev_benign = benign;
    out.packets_ejected += mesh.stats().packets_ejected() - prev_ejected;
    prev_ejected = mesh.stats().packets_ejected();

    if (out.nn_windows.size() == 32) out.nn_windows.erase(out.nn_windows.begin());
    out.nn_windows.push_back(latest);
    ++out.windows;
    if (!ok) ++out.parity_failures;
  }
  if (!out.nn_localized) out.nn_localized = out.nn_windows.back();
  trace.set_speed(first_span, reference::factor(before, reference::probe()));
}

/// Mean of the values that are >= 0, or -1 when none is (the runtime's
/// "never" sentinel for detection latency and time to mitigate).
double mean_reached(const std::vector<double>& v) {
  double sum = 0.0;
  int n = 0;
  for (const double x : v) {
    if (x >= 0.0) {
      sum += x;
      ++n;
    }
  }
  return n > 0 ? sum / n : -1.0;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

Result run_loop(const Workload& wl, const Options& o) {
  Result res;
  const Model model = Model::load(o.models, *wl.recipe);
  res.notes.push_back("weights " + std::string(wl.recipe->name) + " " + model.hash());
  const std::int32_t placements = scenario_count(wl, o);

  // Untraced rounds: every round deploys the defense afresh on each seeded
  // placement and runs its episode, until the budget is spent (half of it
  // when a traced replay follows) and at least two rounds ran. Rounds must
  // reproduce the first round window for window. A window's time is its
  // fastest repeat: short interference only ever slows one.
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  const std::int64_t min_episodes = (o.smoke ? 1 : 2) * placements;
  std::vector<Episode> first;  // round 0, one per placement
  std::vector<std::vector<std::uint64_t>> digests;
  std::vector<std::vector<double>> best;
  std::vector<double> setup_s;
  double untraced_s = 0.0;
  std::int64_t episodes = 0;
  const auto t_run = Clock::now();
  for (; episodes < min_episodes || seconds_since(t_run) < budget; ++episodes) {
    const auto p = static_cast<std::size_t>(episodes % placements);
    Episode ep = run_episode(wl, model, o, static_cast<std::int32_t>(p));
    setup_s.push_back(ep.setup_s);
    res.attempted += static_cast<std::int64_t>(ep.history.size());
    for (const double t : ep.window_s) untraced_s += t;
    if (episodes < placements) {
      digests.emplace_back();
      for (const auto& r : ep.history) digests.back().push_back(record_digest(r));
      best.push_back(ep.window_s);
      first.push_back(std::move(ep));
      continue;
    }
    for (std::size_t w = 0; w < ep.history.size(); ++w) {
      if (record_digest(ep.history[w]) != digests[p][w]) ++res.failed;
      best[p][w] = std::min(best[p][w], ep.window_s[w]);
    }
  }
  const std::int64_t untraced_windows = episodes * episode_windows(wl, o);
  res.notes.push_back(std::to_string(episodes) + " episodes over " + std::to_string(placements) +
                      " placements x " + std::to_string(episode_windows(wl, o)) + " windows");

  if (!o.trace) {
    std::vector<double> window_ms;
    double best_total = 0.0;
    for (const auto& ep : best) {
      for (const double t : ep) {
        window_ms.push_back(t * 1e3);
        best_total += t;
      }
    }
    res.add("windows_per_s", static_cast<double>(window_ms.size()) / best_total, "1/s");
    res.add("window_ms_p50", percentile(window_ms, 0.50), "ms");
    res.add("window_ms_p90", percentile(window_ms, 0.90), "ms");
    res.add("setup_s", median(setup_s), "s");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  // Traced replay of the first round's episodes for the rest of the budget.
  Trace trace;
  ReplayOutcome replay;
  const auto t_replay = Clock::now();
  do {
    for (std::int32_t p = 0; p < placements; ++p) {
      replay_episode(wl, model, o, p, first[static_cast<std::size_t>(p)].history, trace, replay);
    }
  } while (seconds_since(t_replay) < o.seconds - budget);
  res.attempted += replay.windows;
  res.failed += replay.parity_failures;
  if (!o.out.empty()) {
    std::ofstream os(o.out / (std::string(wl.name) + "-seed" + std::to_string(o.seed) + ".trace.json"));
    trace.write(os);
  }

  const auto n = static_cast<double>(replay.windows);
  add_layer_metrics(trace, n, n, replay.flit_cycles, replay.packets_ejected, res);
  const std::int64_t localized = trace.calls(kLocalize);
  res.add("core.localize_useful_frac",
          localized > 0 ? static_cast<double>(replay.localize_on_attack) / static_cast<double>(localized)
                        : 0.0,
          "ratio");
  res.add("temporal.sequence_calls", static_cast<double>(replay.sequence_calls) / n, "count");

  // Defense quality, averaged over the placements (deterministic per seed).
  std::vector<double> acc, prec, f1, latency, ttm, fences, releases, false_fences, degradation;
  for (const Episode& ep : first) {
    const runtime::DefenseSummary& s = ep.summary;
    const auto windows = static_cast<double>(s.windows);
    std::int64_t released = 0;
    for (const auto& r : ep.history) released += static_cast<std::int64_t>(r.released.size());
    acc.push_back(s.detection.accuracy);
    prec.push_back(s.detection.precision);
    f1.push_back(s.attacker_id.f1);
    latency.push_back(static_cast<double>(s.detection_latency()));
    ttm.push_back(static_cast<double>(s.time_to_mitigate()));
    fences.push_back(static_cast<double>(s.fence_events) / windows);
    releases.push_back(static_cast<double>(released) / windows);
    false_fences.push_back(s.false_fence_rate());
    degradation.push_back(ep.reply_degradation);
  }
  res.add("core.det_accuracy", mean(acc), "ratio");
  res.add("core.det_precision", mean(prec), "ratio");
  res.add("core.loc_accuracy", 0.0, "ratio");
  res.add("core.loc_precision", 0.0, "ratio");
  res.add("runtime.attacker_f1", mean(f1), "ratio");
  res.add("runtime.detect_latency_cycles", mean_reached(latency), "cycles");
  res.add("runtime.time_to_mitigate_cycles", mean_reached(ttm), "cycles");
  res.add("runtime.fences", mean(fences), "count");
  res.add("runtime.releases", mean(releases), "count");
  res.add("runtime.false_fences_per_window", mean(false_fences), "count");
  res.add("workload.reply_p99_degradation", mean(degradation), "ratio");

  const core::PipelineEngine engine = model.snapshot.make_engine();
  if (!time_nn(engine, replay.nn_windows, *replay.nn_localized, o.smoke ? 0.1 : 1.0, res)) {
    ++res.failed;
    res.notes.push_back("NN layer replay differs from Sequential::infer_batch");
  }
  res.add("trace.overhead_frac",
          1.0 - (untraced_s / static_cast<double>(untraced_windows)) / (trace.wall_s() / n), "ratio");
  return res;
}

// --------------------------------------------------------- batch scoring

monitor::DatasetConfig held_out_config(const Options& o) {
  monitor::DatasetConfig cfg;
  cfg.mesh = MeshShape::square(16);
  cfg.scenarios_per_benchmark = 2;
  cfg.benign_samples_per_run = o.smoke ? 2 : 4;
  cfg.attack_samples_per_run = o.smoke ? 2 : 4;
  cfg.seed = mix64(o.seed ^ fnv1a("score16-paper"));
  return cfg;
}

std::vector<monitor::Benchmark> held_out_benchmarks(const Options& o) {
  if (o.smoke) return {monitor::stp_benchmarks().front()};
  return monitor::stp_benchmarks();
}

/// Traced replay of monitor::generate_dataset: the same scenarios, seeds
/// and window schedule, with generator ticks, mesh steps and sampling
/// timed. One span per simulated scenario run.
monitor::Dataset replay_generation(const monitor::DatasetConfig& cfg,
                                   const std::vector<monitor::Benchmark>& benchmarks, Trace& trace,
                                   std::int64_t& flit_cycles, std::int64_t& packets_ejected) {
  monitor::Dataset out;
  out.mesh = cfg.mesh;
  const monitor::FeatureSampler sampler(cfg.mesh);
  const monitor::FrameGeometry& geom = sampler.geometry();
  Rng master(cfg.seed);
  for (const auto& bench : benchmarks) {
    const std::int32_t n1 = (cfg.scenarios_per_benchmark + 1) / 2;
    const std::int32_t n2 = cfg.scenarios_per_benchmark - n1;
    auto scenarios = traffic::make_scenarios(cfg.mesh, n1, 1, cfg.fir, master.engine()());
    auto two = traffic::make_scenarios(cfg.mesh, n2, 2, cfg.fir, master.engine()());
    scenarios.insert(scenarios.end(), two.begin(), two.end());
    for (const auto& scenario : scenarios) {
      const double before = reference::probe();
      Span& span = trace.open("generate " + bench.name());
      noc::MeshConfig mesh_cfg;
      mesh_cfg.shape = cfg.mesh;
      mesh_cfg.router = cfg.router;
      traffic::Simulation sim(mesh_cfg);
      sim.add_generator(bench.make_generator(cfg.mesh, master.engine()()));
      auto* attack = sim.emplace_generator<traffic::FloodingAttack>(scenario, master.engine()());
      attack->set_active(false);
      noc::Mesh& mesh = sim.mesh();
      const auto& generators = sim.generators();
      const std::int64_t ejected0 = mesh.stats().packets_ejected();
      const auto run = [&](std::int64_t cycles) {
        for (std::int64_t c = 0; c < cycles; ++c) {
          const auto t0 = Clock::now();
          for (const auto& gen : generators) gen->tick(mesh);
          const auto t1 = Clock::now();
          mesh.step();
          const auto t2 = Clock::now();
          span.layers[kTraffic].busy_ns += ns_between(t0, t1);
          span.layers[kNoc].busy_ns += ns_between(t1, t2);
          flit_cycles += mesh.flits_in_network();
        }
        span.layers[kTraffic].calls += cycles;
        span.layers[kNoc].calls += cycles;
      };
      const auto collect = [&](std::int32_t count, bool under_attack) {
        for (std::int32_t k = 0; k < count; ++k) {
          run(bench.sample_period());
          timed(span, kMonitor, [&] {
            monitor::FrameSample s;
            s.vco = sampler.sample_vco(mesh, /*reset=*/true);
            s.boc = sampler.sample_boc(mesh, /*reset=*/true);
            s.ni_load = sampler.sample_ni_load(mesh, /*reset=*/true);
            s.window_cycles = bench.sample_period();
            s.under_attack = under_attack;
            if (under_attack) {
              s.scenario = scenario;
              s.port_truth = monitor::ground_truth_masks(geom, scenario);
              s.victim_truth = scenario.ground_truth_victims(geom.mesh());
            } else {
              for (Direction d : kMeshDirections) monitor::frame_of(s.port_truth, d) = geom.make_frame();
            }
            out.samples.push_back(std::move(s));
          });
        }
      };
      run(cfg.warmup_cycles);
      timed(span, kMonitor, [&] { mesh.reset_telemetry(); });
      collect(cfg.benign_samples_per_run, false);
      attack->set_active(true);
      run(cfg.attack_ramp_cycles);
      timed(span, kMonitor, [&] { mesh.reset_telemetry(); });
      collect(cfg.attack_samples_per_run, true);
      packets_ejected += mesh.stats().packets_ejected() - ejected0;
      trace.close(span);
      span.speed = reference::factor(before, reference::probe());
    }
  }
  return out;
}

/// Traced replay of core::score_benchmark: one batched detector pass,
/// then localization of every attack window.
core::BenchmarkScore replay_score(const core::PipelineEngine& engine, const monitor::Dataset& test,
                                  Trace& trace) {
  Span& span = trace.open("score pass");
  core::BenchmarkScore score;
  score.benchmark = "stp";
  core::PipelineSession session(engine);
  const std::vector<float> probs =
      timed(span, kDetect, [&] { return session.detect_batch(test.windows()); });
  const float threshold = engine.config().detector.threshold;
  ConfusionMatrix detection;
  core::LocalizationScore localization;
  for (std::size_t i = 0; i < test.samples.size(); ++i) {
    const auto& sample = test.samples[i];
    detection.add(probs[i] > threshold, sample.under_attack);
    if (sample.under_attack) {
      const core::RoundResult r = timed(span, kLocalize, [&] { return session.localize(sample); });
      localization.add(r.victims, sample.victim_truth);
    }
  }
  score.detection = core::detection_metrics(detection);
  score.localization = localization.metrics();
  trace.close(span);
  return score;
}

/// Call fn() repeatedly, in blocks of about 0.2 s bracketed by reference
/// probes, until `seconds` have passed and at least `min_calls` calls ran.
/// Returns every call's standardized duration; spans fn() opened in
/// `trace` get their block's factor.
template <typename Fn>
std::vector<double> timed_calls(double seconds, std::size_t min_calls, Trace& trace, Fn&& fn) {
  std::vector<double> out;
  const auto t_run = Clock::now();
  while (out.size() < min_calls || seconds_since(t_run) < seconds) {
    const double before = reference::probe();
    const std::size_t first_call = out.size();
    const std::size_t first_span = trace.spans.size();
    const auto t_block = Clock::now();
    do {
      const auto t0 = Clock::now();
      fn();
      out.push_back(seconds_since(t0));
    } while (seconds_since(t_block) < 0.2);
    const double speed = reference::factor(before, reference::probe());
    for (std::size_t i = first_call; i < out.size(); ++i) out[i] *= speed;
    trace.set_speed(first_span, speed);
  }
  return out;
}

bool same_score(const core::BenchmarkScore& a, const core::BenchmarkScore& b) {
  const auto same4 = [](const core::Metrics4& x, const core::Metrics4& y) {
    return same_bits(x.accuracy, y.accuracy) && same_bits(x.precision, y.precision) &&
           same_bits(x.recall, y.recall) && same_bits(x.f1, y.f1);
  };
  return same4(a.detection, b.detection) && same4(a.localization, b.localization);
}

bool same_round(const core::RoundResult& a, const core::RoundResult& b) {
  return a.detected == b.detected && same_bits(a.probability, b.probability) &&
         a.victims == b.victims && a.tlm.attackers == b.tlm.attackers;
}

Result run_score(const Workload& wl, const Options& o) {
  Result res;
  const Model model = Model::load(o.models, *wl.recipe);
  res.notes.push_back("weights " + std::string(wl.recipe->name) + " " + model.hash());
  const monitor::DatasetConfig data_cfg = held_out_config(o);
  const std::vector<monitor::Benchmark> benchmarks = held_out_benchmarks(o);

  // Set-up, repeated: weights -> engine, then the seeded held-out set.
  std::vector<double> setup_s;
  std::optional<core::PipelineEngine> engine;
  monitor::Dataset test;
  std::vector<std::uint64_t> digests;
  for (int k = 0; k < (o.smoke ? 1 : 3); ++k) {
    const double before = reference::probe();
    const auto t0 = Clock::now();
    engine.emplace(model.snapshot.make_engine());
    test = monitor::generate_dataset(data_cfg, benchmarks);
    setup_s.push_back(seconds_since(t0) * reference::factor(before, reference::probe()));
    std::vector<std::uint64_t> d;
    for (const auto& s : test.samples) d.push_back(sample_digest(s));
    if (digests.empty()) {
      digests = std::move(d);
    } else if (d != digests) {
      res.failed += static_cast<std::int64_t>(test.samples.size());
    }
  }
  const auto windows = static_cast<std::int64_t>(test.samples.size());

  // First pass: batched rounds must equal one-window rounds bitwise.
  {
    core::PipelineSession batch_session(*engine);
    core::PipelineSession single_session(*engine, 1);
    const auto rounds = batch_session.process_batch(test.windows());
    for (std::size_t i = 0; i < test.samples.size(); ++i) {
      if (!same_round(rounds[i], single_session.process(test.samples[i]))) ++res.failed;
    }
    res.attempted += windows;
  }

  // Timed passes: every pass is the same work, so the fastest one (the
  // pass that ran clear of the host's neighbours) is the cost of a pass.
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  const core::BenchmarkScore first = core::score_benchmark(*engine, "stp", test);
  Trace trace;
  const std::vector<double> pass_s = timed_calls(budget, 5, trace, [&] {
    if (!same_score(core::score_benchmark(*engine, "stp", test), first)) res.failed += windows;
    res.attempted += windows;
  });
  res.notes.push_back(std::to_string(pass_s.size()) + " passes x " + std::to_string(windows) +
                      " windows");

  if (!o.trace) {
    // One batched call scores every window, so each window costs the
    // pass time over the window count: p50 and p90 coincide.
    const double best_s = *std::min_element(pass_s.begin(), pass_s.end());
    res.add("windows_per_s", static_cast<double>(windows) / best_s, "1/s");
    res.add("window_ms_p50", best_s * 1e3 / static_cast<double>(windows), "ms");
    res.add("window_ms_p90", best_s * 1e3 / static_cast<double>(windows), "ms");
    res.add("setup_s", median(setup_s), "s");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  // Traced replay: the held-out generation (this workload's simulation),
  // then scoring passes for the rest of the budget.
  std::int64_t flit_cycles = 0, packets_ejected = 0;
  const auto t_gen = Clock::now();
  const monitor::Dataset replayed =
      replay_generation(data_cfg, benchmarks, trace, flit_cycles, packets_ejected);
  const double generation_s = trace.wall_s();
  std::vector<std::uint64_t> replayed_digests;
  for (const auto& s : replayed.samples) replayed_digests.push_back(sample_digest(s));
  if (replayed_digests != digests) ++res.failed;
  res.attempted += windows;

  const std::vector<double> traced_pass_s =
      timed_calls(o.seconds - budget - seconds_since(t_gen), 1, trace, [&] {
        if (!same_score(replay_score(*engine, test, trace), first)) res.failed += windows;
        res.attempted += windows;
      });
  if (!o.out.empty()) {
    std::ofstream os(o.out / (std::string(wl.name) + "-seed" + std::to_string(o.seed) + ".trace.json"));
    trace.write(os);
  }

  const auto n = static_cast<double>(windows);
  const auto scored = n * static_cast<double>(traced_pass_s.size());
  add_layer_metrics(trace, n, scored, flit_cycles, packets_ejected, res);
  res.add("core.localize_useful_frac", 1.0, "ratio");  // only attack windows are localized
  res.add("temporal.sequence_calls", 0.0, "count");
  res.add("core.det_accuracy", first.detection.accuracy, "ratio");
  res.add("core.det_precision", first.detection.precision, "ratio");
  res.add("core.loc_accuracy", first.localization.accuracy, "ratio");
  res.add("core.loc_precision", first.localization.precision, "ratio");
  // No defense loop runs in this workload.
  res.add("runtime.attacker_f1", 0.0, "ratio");
  res.add("runtime.detect_latency_cycles", 0.0, "cycles");
  res.add("runtime.time_to_mitigate_cycles", 0.0, "cycles");
  for (const char* name : {"runtime.fences", "runtime.releases", "runtime.false_fences_per_window"}) {
    res.add(name, 0.0, "count");
  }
  res.add("workload.reply_p99_degradation", 0.0, "ratio");

  std::vector<monitor::FrameSample> nn_windows(
      test.samples.begin(), test.samples.begin() + std::min<std::ptrdiff_t>(32, windows));
  const auto attack = std::find_if(test.samples.begin(), test.samples.end(),
                                   [](const auto& s) { return s.under_attack; });
  if (!time_nn(*engine, nn_windows, attack != test.samples.end() ? *attack : test.samples.front(),
               o.smoke ? 0.1 : 1.0, res)) {
    ++res.failed;
    res.notes.push_back("NN layer replay differs from Sequential::infer_batch");
  }
  const double untraced_s = median(setup_s) + median(pass_s);
  const double traced_s = generation_s + median(traced_pass_s);
  res.add("trace.overhead_frac", 1.0 - untraced_s / traced_s, "ratio");
  return res;
}

// ------------------------------------------------------------------ main

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Mode and machine of this run, printed before the result line so every
/// stored artifact can be traced to them.
std::string stamp(const Options& o) {
  std::ostringstream os;
  os << "{\"mode\": \"" << (o.smoke ? "smoke" : "full") << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"build_type\": " << json_string(DL2F_PERFBENCH_BUILD_TYPE)
     << ", \"gemm_backend\": \"" << common::simd_level_name(common::active_simd_level()) << "\"}";
  return os.str();
}

std::string result_json(const Result& r, bool correct) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << r.attempted
     << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? ", " : "") << json_string(m.name) << ": {\"value\": " << m.value
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}}";
  return os.str();
}

int usage(const std::string& why) {
  std::cerr << "perfbench_suite: " << why
            << "\nusage: perfbench_suite --prepare --models DIR [--smoke]\n"
               "       perfbench_suite --workload NAME --seed N --seconds S --trace 0|1 "
               "--models DIR [--out DIR] [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool prepare_only = false;
  std::vector<std::string_view> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view a = args[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) throw std::invalid_argument(std::string(a) + " needs a value");
      return std::string(args[++i]);
    };
    try {
      if (a == "--prepare") {
        prepare_only = true;
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = value() != "0";
      } else if (a == "--models") {
        o.models = value();
      } else if (a == "--out") {
        o.out = value();
      } else {
        return usage("unknown argument " + std::string(a));
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (o.models.empty()) return usage("--models is required");

  try {
    if (prepare_only) return prepare(o.models, o.smoke);
    const auto& table = workloads();
    const auto wl = std::find_if(table.begin(), table.end(),
                                 [&](const Workload& w) { return w.name == o.workload; });
    if (wl == table.end()) return usage("unknown workload '" + o.workload + "'");
    if (!o.out.empty()) std::filesystem::create_directories(o.out);

    const Result res = wl->loop ? run_loop(*wl, o) : run_score(*wl, o);
    const bool correct = res.failed == 0;
    for (const std::string& note : res.notes) std::cout << "# " << note << "\n";
    std::cout << "stamp " << stamp(o) << "\n" << result_json(res, correct) << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_suite: " << e.what() << "\n";
    return 1;
  }
}
