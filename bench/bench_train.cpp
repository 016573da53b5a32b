// Training throughput of nn::train, the one trainer, plus the
// byte-identical-weights determinism gate across worker counts.
//
// Trains the same detector + localizer pair on the same dataset from the
// same seeds through core::train_detector / core::train_localizer (the
// batched infer_batch/backward_batch path: direct-kernel convolution
// forward, Same padding on a zero-bordered plane, and im2row + GEMM or
// direct weight gradients, with sliced, fixed-order gradient reduction)
// at 1, 2 and 4 worker threads, best-of-`repeats` wall time each.
//
// The determinism gate serializes the trained weights of every arm and
// exits non-zero unless all thread counts produced byte-identical
// detector AND localizer weights — the same guarantee run_campaign makes
// for scoring.
//
// Output: human-readable table on stdout plus machine-readable
// BENCH_train.json in the working directory. Pass --quick for the CI
// preset.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cpuid.hpp"
#include "core/detector.hpp"
#include "core/localizer.hpp"
#include "monitor/dataset.hpp"
#include "nn/layers.hpp"

using namespace dl2f;

namespace {

/// FLOPs of one forward pass (mul + add counted separately; activation
/// and pool layers negligible). One training step costs roughly 3x this:
/// forward + grad-input + grad-weights each do a comparable GEMM.
std::int64_t forward_flops(const nn::Sequential& model, nn::Tensor3 shape) {
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

template <typename Fn>
double best_seconds(std::int32_t repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (std::int32_t r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct TrainedBlobs {
  std::string detector;
  std::string localizer;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") quick = true;
  }

  const MeshShape mesh = MeshShape::square(16);  // the paper's STP mesh
  monitor::DatasetConfig data_cfg;
  data_cfg.mesh = mesh;
  data_cfg.scenarios_per_benchmark = quick ? 3 : 6;
  data_cfg.benign_samples_per_run = quick ? 2 : 3;
  data_cfg.attack_samples_per_run = quick ? 2 : 3;
  data_cfg.seed = 0x5eed;
  const std::vector<monitor::Benchmark> benigns{
      monitor::Benchmark{traffic::SyntheticPattern::UniformRandom}};
  std::cout << "bench_train: generating " << mesh.rows() << "x" << mesh.cols()
            << " dataset..." << std::flush;
  const monitor::Dataset data = monitor::generate_dataset(data_cfg, benigns);
  std::cout << " " << data.samples.size() << " windows ("
            << 4 * data.samples.size() << " localizer frames)\n";

  nn::TrainConfig det_cfg{.epochs = quick ? 20 : 40, .seed = 0x42};
  nn::TrainConfig loc_cfg{.epochs = quick ? 8 : 16, .seed = 0x43};
  const std::int32_t repeats = quick ? 3 : 5;
  const core::DetectorConfig det_arch{.mesh = mesh};
  core::LocalizerConfig loc_arch;
  loc_arch.mesh = mesh;

  std::cout << "training: detector " << det_cfg.epochs << " epochs, localizer " << loc_cfg.epochs
            << " epochs, best of " << repeats << " repeats" << (quick ? " (quick)" : "")
            << "\n\n";

  // One arm per worker count, weights captured per arm.
  const std::vector<std::int32_t> thread_counts{1, 2, 4};
  std::vector<double> batched_s;
  std::vector<TrainedBlobs> blobs;
  for (const std::int32_t threads : thread_counts) {
    det_cfg.threads = threads;
    loc_cfg.threads = threads;
    TrainedBlobs blob;
    batched_s.push_back(best_seconds(repeats, [&] {
      core::DoSDetector det(det_arch);
      core::DoSLocalizer loc(loc_arch);
      (void)core::train_detector(det, data, det_cfg);
      (void)core::train_localizer(loc, data, loc_cfg);
      std::ostringstream dos, los;
      det.model().save(dos);
      loc.model().save(los);
      blob.detector = dos.str();
      blob.localizer = los.str();
    }));
    blobs.push_back(std::move(blob));
    std::cout << "  " << threads << " thread(s): " << batched_s.back() << " s\n";
  }

  // Determinism gate: byte-identical weights at every thread count.
  bool deterministic = true;
  for (std::size_t i = 1; i < blobs.size(); ++i) {
    if (blobs[i].detector != blobs[0].detector || blobs[i].localizer != blobs[0].localizer) {
      deterministic = false;
      std::cerr << "DETERMINISM FAILURE: weights at " << thread_counts[i]
                << " threads differ from the 1-thread weights\n";
    }
  }
  if (deterministic) {
    std::cout << "\ndeterminism: trained weights byte-identical at 1/2/4 threads\n";
  }

  const auto item_steps =
      static_cast<double>(data.samples.size()) * det_cfg.epochs +
      static_cast<double>(4 * data.samples.size()) * loc_cfg.epochs;

  // Achieved training GFLOP/s on the 1-thread arm (~3x forward per
  // item-step; see forward_flops).
  const char* backend = common::simd_level_name(common::active_simd_level());
  double train_flops = 0.0;
  {
    core::DoSDetector det(det_arch);
    core::DoSLocalizer loc(loc_arch);
    const auto det_fwd = static_cast<double>(forward_flops(det.model(), det.input_shape()));
    const auto loc_fwd = static_cast<double>(forward_flops(loc.model(), loc.input_shape()));
    train_flops = 3.0 * (det_fwd * static_cast<double>(data.samples.size()) * det_cfg.epochs +
                         loc_fwd * static_cast<double>(4 * data.samples.size()) * loc_cfg.epochs);
  }
  const double train_gflops = train_flops / batched_s.front() / 1e9;
  std::cout << "backend " << backend << ", 1-thread arm ~" << train_gflops << " GFLOP/s\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"train\",\n"
       << "  \"mesh\": " << mesh.rows() << ",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"samples\": " << data.samples.size() << ",\n"
       << "  \"detector_epochs\": " << det_cfg.epochs << ",\n"
       << "  \"localizer_epochs\": " << loc_cfg.epochs << ",\n"
       << "  \"repeats\": " << repeats << ",\n"
       << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"gemm_backend\": \"" << backend << "\",\n"
       << "  \"train_gflops_1thread\": " << train_gflops << ",\n"
       << "  \"batched_s\": {";
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << thread_counts[i] << "\": " << batched_s[i];
  }
  json << "},\n"
       << "  \"train_items_per_sec\": " << item_steps / batched_s.front() << ",\n"
       << "  \"deterministic_across_threads\": " << (deterministic ? "true" : "false") << "\n"
       << "}\n";

  std::ofstream out("BENCH_train.json");
  out << json.str();
  std::cout << "wrote BENCH_train.json\n";
  return deterministic ? 0 : 1;
}
