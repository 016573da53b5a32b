// Inference throughput through the one scoring API, the engine/session
// pair.
//
// Scores the same synthetic monitoring-window set three ways and reports
// windows/sec for each:
//   * session batch {1, 8, 32} — the allocation-free const path at
//     different batch capacities (capacity 1 is what the live
//     runtime::DefenseRuntime loop scores with);
//   * 1/2/4 sessions — concurrent sessions sharing ONE engine, each
//     scoring a disjoint shard (the campaign scaling model);
//   * localize — PipelineSession::localize on every window: the
//     localizer's Same-padded segmentation CNN over the four directional
//     frames, then fusion, TLM and VCE, the stage each detected window
//     pays. With this set's random weights about 80% of the pixels
//     segment as route pixels, so fusion and the TLM take most of a call;
//     on trained weights the CNN dominates (perfbench's score16-paper).
//
// The detector threshold is raised above 1 so the first two arms measure
// the always-on detector stage that each window pays regardless of
// verdict. Bitwise parity checks run first: every batched detector
// probability must equal the per-sample Sequential::forward on the same
// core::stack_frames staging, and every localizer output the per-frame
// Sequential::forward on the same preprocess_into staging. The bench
// exits non-zero on any mismatch.
//
// Output: human-readable table on stdout plus machine-readable
// BENCH_inference.json in the working directory. Pass --quick for the CI
// preset.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <atomic>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/cpuid.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "monitor/dataset.hpp"
#include "nn/inference.hpp"
#include "nn/layers.hpp"

using namespace dl2f;

namespace {

/// FLOPs of one detector forward pass over one window (mul + add counted
/// separately; activation/pool layers are negligible and skipped).
std::int64_t detector_flops_per_window(const nn::Sequential& model, nn::Tensor3 shape) {
  std::int64_t flops = 0;
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    const nn::Layer& layer = model.layer(l);
    const nn::Tensor3 out = layer.output_shape(shape);
    if (const auto* conv = dynamic_cast<const nn::Conv2D*>(&layer)) {
      flops += 2LL * conv->in_channels() * conv->kernel() * conv->kernel() * out.channels() *
               out.height() * out.width();
    } else if (const auto* dense = dynamic_cast<const nn::Dense*>(&layer)) {
      flops += 2LL * dense->in_features() * dense->out_features();
    }
    shape = out;
  }
  return flops;
}

/// CPUs the calling thread may run on (0 when the platform cannot say) —
/// the affinity context concurrent-session numbers depend on.
int affinity_cpu_count() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return 0;
}

monitor::FrameSample synthetic_window(const monitor::FrameGeometry& geom, Rng& rng) {
  monitor::FrameSample s;
  for (Direction d : kMeshDirections) {
    Frame vco = geom.make_frame();
    Frame boc = geom.make_frame();
    for (float& v : vco.data()) v = static_cast<float>(rng.uniform());
    for (float& v : boc.data()) v = static_cast<float>(rng.uniform_int(0, 400));
    monitor::frame_of(s.vco, d) = std::move(vco);
    monitor::frame_of(s.boc, d) = std::move(boc);
  }
  return s;
}

/// Best-of-`repeats` wall time of fn() over the whole window set, as
/// windows per second.
template <typename Fn>
double throughput(std::size_t windows, std::int32_t repeats, Fn&& fn) {
  double best_seconds = std::numeric_limits<double>::infinity();
  for (std::int32_t r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best_seconds = std::min(best_seconds, std::chrono::duration<double>(t1 - t0).count());
  }
  return static_cast<double>(windows) / best_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") quick = true;
  }
  const char* backend = common::simd_level_name(common::active_simd_level());

  const MeshShape mesh = MeshShape::square(16);  // the paper's STP mesh
  const std::size_t num_windows = quick ? 256 : 1024;
  const std::int32_t repeats = quick ? 3 : 8;

  core::Dl2FenceConfig cfg = core::Dl2FenceConfig::paper_default(mesh);
  cfg.detector.threshold = 2.0F;  // sigmoid never exceeds: detector stage only

  // Deterministically initialized weights: throughput does not care about
  // model quality, parity checks care about determinism.
  core::PipelineEngine engine(cfg);
  Rng det_rng(7), loc_rng(8);
  engine.mutable_detector().model().init_weights(det_rng);
  engine.mutable_localizer().model().init_weights(loc_rng);

  const monitor::FrameGeometry geom(mesh);
  Rng data_rng(0x5eed);
  std::vector<monitor::FrameSample> windows;
  windows.reserve(num_windows);
  for (std::size_t i = 0; i < num_windows; ++i) windows.push_back(synthetic_window(geom, data_rng));
  const monitor::WindowBatch batch{windows.data(), windows.size()};

  const std::int64_t flops_per_window =
      detector_flops_per_window(engine.detector().model(), engine.detector().input_shape());

  std::cout << "bench_inference: " << num_windows << " synthetic 16x16 windows, best of "
            << repeats << " repeats" << (quick ? " (quick)" : "") << ", gemm backend " << backend
            << ", " << flops_per_window << " FLOP/window\n\n";

  // Parity gate: the batched const path must be bitwise-identical to the
  // per-sample Sequential::forward on the same staging.
  {
    core::PipelineSession session(engine);
    const std::vector<float> batched = session.detect_batch(batch);
    nn::Tensor3 staged = engine.detector().input_shape();
    for (std::size_t i = 0; i < windows.size(); ++i) {
      core::stack_frames(windows[i], cfg.detector.feature, staged.data());
      const float forward = engine.mutable_detector().model().forward(staged).data()[0];
      if (std::memcmp(&forward, &batched[i], sizeof(float)) != 0) {
        std::cerr << "PARITY FAILURE at window " << i << ": forward " << forward
                  << " vs batched " << batched[i] << "\n";
        return 1;
      }
    }
    std::cout << "parity: batched path bitwise-identical to Sequential::forward over "
              << windows.size() << " windows\n";
  }
  {
    // The localizer's batch is one window's four directional frames, as
    // PipelineSession::localize stages it.
    const core::DoSLocalizer& loc = engine.localizer();
    const nn::Tensor3 shape = loc.input_shape();
    const auto dirs = static_cast<std::int32_t>(kNumMeshDirections);
    nn::InferenceContext ctx;
    ctx.bind(loc.model(), shape, dirs);
    nn::Tensor3 staged = shape;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      nn::Tensor4& in = ctx.input(dirs);
      const auto& frames =
          cfg.localizer.feature == core::Feature::Vco ? windows[i].vco : windows[i].boc;
      for (std::int32_t d = 0; d < dirs; ++d) {
        loc.preprocess_into(frames[static_cast<std::size_t>(d)], in, d);
      }
      const nn::Tensor4& out = loc.model().infer_batch(ctx);
      for (std::int32_t d = 0; d < dirs; ++d) {
        std::copy(in.sample(d), in.sample(d) + in.sample_size(), staged.data().begin());
        const nn::Tensor3 forward = engine.mutable_localizer().model().forward(staged);
        if (std::memcmp(forward.data().data(), out.sample(d), forward.size() * sizeof(float)) !=
            0) {
          std::cerr << "LOCALIZER PARITY FAILURE at window " << i << " direction " << d << "\n";
          return 1;
        }
      }
    }
    std::cout << "parity: localizer infer_batch bitwise-identical to Sequential::forward over "
              << windows.size() << " windows x " << dirs << " frames\n";
  }

  double checksum = 0.0;  // keep every arm's work observable

  // Arm 1: session batch sizes 1 / 8 / 32.
  const std::vector<std::int32_t> batch_sizes{1, 8, 32};
  std::vector<double> batch_wps;
  for (const std::int32_t b : batch_sizes) {
    core::PipelineSession session(engine, b);
    batch_wps.push_back(throughput(num_windows, repeats, [&] {
      const auto rounds = session.process_batch(batch);
      checksum += rounds.back().probability;
    }));
  }

  // Arm 2: 1/2/4 sessions over one shared engine, disjoint shards. Each
  // session is constructed ON its worker thread (per-thread malloc arenas
  // put every session's scratch on disjoint pages — the false-sharing
  // contract from nn/inference.hpp) and BEFORE the clock starts: a start
  // latch separates session/thread setup from the scored region, so this
  // arm measures scaling of the scoring path itself, not allocator or
  // thread-spawn overhead. On a single-core runner the expected result is
  // flat (~1x) total throughput; on an N-core runner near-linear.
  const std::vector<std::int32_t> session_counts{1, 2, 4};
  std::vector<double> session_wps;
  // Per-session (backend, affinity-cpu-count) pairs, recorded ON each
  // worker thread: the numbers a reader needs to judge whether flat
  // scaling means "one core" or "a dispatch regression".
  std::vector<std::vector<std::pair<const char*, int>>> session_detail;
  for (const std::int32_t n : session_counts) {
    double best_seconds = std::numeric_limits<double>::infinity();
    std::vector<std::pair<const char*, int>> detail(static_cast<std::size_t>(n), {backend, 0});
    for (std::int32_t r = 0; r < repeats; ++r) {
      std::atomic<std::int32_t> ready{0};
      std::atomic<bool> go{false};
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(n));
      const std::size_t shard = (windows.size() + static_cast<std::size_t>(n) - 1) /
                                static_cast<std::size_t>(n);
      for (std::int32_t t = 0; t < n; ++t) {
        pool.emplace_back([&, t] {
          core::PipelineSession session(engine, 32);  // on-thread arenas
          detail[static_cast<std::size_t>(t)] = {
              common::simd_level_name(common::active_simd_level()), affinity_cpu_count()};
          ready.fetch_add(1);
          while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
          const std::size_t lo = static_cast<std::size_t>(t) * shard;
          const std::size_t hi = std::min(lo + shard, windows.size());
          if (lo >= hi) return;
          const auto rounds = session.process_batch(batch.subspan(lo, hi - lo));
          (void)rounds;
        });
      }
      while (ready.load() < n) std::this_thread::yield();
      const auto t0 = std::chrono::steady_clock::now();
      go.store(true, std::memory_order_release);
      for (auto& t : pool) t.join();
      const auto t1 = std::chrono::steady_clock::now();
      best_seconds = std::min(best_seconds, std::chrono::duration<double>(t1 - t0).count());
    }
    session_wps.push_back(static_cast<double>(num_windows) / best_seconds);
    session_detail.push_back(std::move(detail));
  }

  // Arm 3: PipelineSession::localize over the whole set.
  double localize_wps = 0.0;
  {
    core::PipelineSession session(engine);
    localize_wps = throughput(num_windows, repeats, [&] {
      for (const monitor::FrameSample& w : windows) {
        checksum += static_cast<double>(session.localize(w).victims.size());
      }
    });
  }

  const auto gflops = [flops_per_window](double wps) {
    return wps * static_cast<double>(flops_per_window) / 1e9;
  };

  std::cout << "\n";
  for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
    std::cout << "  session batch " << batch_sizes[i] << ": " << batch_wps[i] << " windows/s ("
              << gflops(batch_wps[i]) << " GFLOP/s, " << backend << ")\n";
  }
  for (std::size_t i = 0; i < session_counts.size(); ++i) {
    std::cout << "  " << session_counts[i] << " session(s), one engine: " << session_wps[i]
              << " windows/s [";
    for (std::size_t t = 0; t < session_detail[i].size(); ++t) {
      std::cout << (t == 0 ? "" : ", ") << session_detail[i][t].first << "/"
                << session_detail[i][t].second << "cpu";
    }
    std::cout << "]\n";
  }
  std::cout << "  localize: " << localize_wps << " windows/s\n";
  std::cout << "  checksum " << checksum << "\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"inference\",\n"
       << "  \"mesh\": " << mesh.rows() << ",\n"
       << "  \"windows\": " << num_windows << ",\n"
       << "  \"repeats\": " << repeats << ",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"gemm_backend\": \"" << backend << "\",\n"
       << "  \"affinity_cpus\": " << affinity_cpu_count() << ",\n"
       << "  \"detector_flops_per_window\": " << flops_per_window << ",\n"
       << "  \"batch_wps\": {";
  for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << batch_sizes[i] << "\": " << batch_wps[i];
  }
  json << "},\n  \"batch_gflops\": {";
  for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << batch_sizes[i] << "\": " << gflops(batch_wps[i]);
  }
  json << "},\n  \"sessions_wps\": {";
  for (std::size_t i = 0; i < session_counts.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << session_counts[i] << "\": " << session_wps[i];
  }
  json << "},\n  \"sessions_detail\": {";
  for (std::size_t i = 0; i < session_counts.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << session_counts[i] << "\": [";
    for (std::size_t t = 0; t < session_detail[i].size(); ++t) {
      json << (t == 0 ? "" : ", ") << "{\"backend\": \"" << session_detail[i][t].first
           << "\", \"affinity_cpus\": " << session_detail[i][t].second << "}";
    }
    json << "]";
  }
  json << "},\n  \"localize_wps\": " << localize_wps << "\n}\n";

  std::ofstream out("BENCH_inference.json");
  out << json.str();
  std::cout << "\nwrote BENCH_inference.json\n";
  return 0;
}
