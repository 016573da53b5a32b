// Engine/session split: batched scoring must be bitwise-identical to the
// per-window session path (and to the training-time forward pass), and one
// immutable PipelineEngine must be safely shareable across concurrent
// sessions with deterministic results.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/evaluation.hpp"
#include "monitor/dataset.hpp"

namespace dl2f {
namespace {

constexpr std::int32_t kMeshSide = 8;

/// Random but deterministic feature frames; VCO in [0,1), BOC integer-ish
/// counts — the value ranges the samplers produce.
monitor::FrameSample synthetic_window(const monitor::FrameGeometry& geom, Rng& rng,
                                      bool under_attack) {
  monitor::FrameSample s;
  s.under_attack = under_attack;
  for (Direction d : kMeshDirections) {
    Frame vco = geom.make_frame();
    Frame boc = geom.make_frame();
    for (float& v : vco.data()) v = static_cast<float>(rng.uniform());
    for (float& v : boc.data()) v = static_cast<float>(rng.uniform_int(0, 400));
    monitor::frame_of(s.vco, d) = std::move(vco);
    monitor::frame_of(s.boc, d) = std::move(boc);
    monitor::frame_of(s.port_truth, d) = geom.make_frame();
  }
  return s;
}

std::vector<monitor::FrameSample> synthetic_windows(std::size_t count, std::uint64_t seed) {
  const monitor::FrameGeometry geom(MeshShape::square(kMeshSide));
  Rng rng(seed);
  std::vector<monitor::FrameSample> windows;
  windows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    windows.push_back(synthetic_window(geom, rng, i % 2 == 0));
  }
  return windows;
}

/// Deterministically initialized (untrained) engine; parity does not care
/// about model quality, only that both paths see identical weights.
core::PipelineEngine deterministic_engine() {
  core::PipelineEngine engine(core::Dl2FenceConfig::paper_default(MeshShape::square(kMeshSide)));
  Rng det_rng(7), loc_rng(8);
  engine.mutable_detector().model().init_weights(det_rng);
  engine.mutable_localizer().model().init_weights(loc_rng);
  return engine;
}

void expect_bitwise_equal(const core::RoundResult& a, const core::RoundResult& b,
                          std::size_t index) {
  EXPECT_EQ(a.detected, b.detected) << "window " << index;
  EXPECT_EQ(std::memcmp(&a.probability, &b.probability, sizeof(float)), 0)
      << "window " << index << ": " << a.probability << " vs " << b.probability;
  EXPECT_EQ(a.victims, b.victims) << "window " << index;
  EXPECT_EQ(a.tlm.attackers, b.tlm.attackers) << "window " << index;
  EXPECT_EQ(a.tlm.target_victims, b.tlm.target_victims) << "window " << index;
  EXPECT_EQ(a.fusion.victims, b.fusion.victims) << "window " << index;
  EXPECT_EQ(a.fusion.mff, b.fusion.mff) << "window " << index;
  EXPECT_EQ(a.segmentation, b.segmentation) << "window " << index;
}

/// process_batch over `windows` at `max_batch` vs one process() call per
/// window on a batch-1 session.
void expect_batch_matches_per_window(const core::PipelineEngine& engine,
                                     const std::vector<monitor::FrameSample>& windows,
                                     std::int32_t max_batch) {
  core::PipelineSession batched_session(engine, max_batch);
  const auto batched = batched_session.process_batch({windows.data(), windows.size()});
  ASSERT_EQ(batched.size(), windows.size());
  core::PipelineSession single(engine, 1);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    expect_bitwise_equal(batched[i], single.process(windows[i]), i);
  }
}

TEST(PipelineEngine, ProcessBatchBitwiseIdenticalToPerWindowProcess) {
  const core::PipelineEngine engine = deterministic_engine();
  const auto windows = synthetic_windows(21, 0x1234);  // odd count: exercises chunk tails
  expect_batch_matches_per_window(engine, windows, 8);

  // The synthetic set must exercise both branches for the parity claim to
  // mean anything.
  core::PipelineSession session(engine);
  std::size_t detected = 0;
  for (const auto& r : session.process_batch({windows.data(), windows.size()})) {
    detected += r.detected ? 1 : 0;
  }
  EXPECT_GT(detected, 0U);
  EXPECT_LT(detected, windows.size());
}

TEST(PipelineEngine, DetectedWindowsCarryFourBinarySegmentationFrames) {
  const core::PipelineEngine engine = deterministic_engine();
  const auto windows = synthetic_windows(21, 0x1234);
  core::PipelineSession session(engine);
  const auto rounds = session.process_batch({windows.data(), windows.size()});
  std::size_t detected = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    detected += rounds[i].detected ? 1 : 0;
    for (const Frame& f : rounds[i].segmentation) {
      if (!rounds[i].detected) {
        EXPECT_EQ(f.size(), 0U) << "window " << i;
        continue;
      }
      EXPECT_EQ(f.rows(), kMeshSide) << "window " << i;
      EXPECT_EQ(f.cols(), kMeshSide - 1) << "window " << i;
      for (const float v : f.data()) EXPECT_TRUE(v == 0.0F || v == 1.0F) << "window " << i;
    }
  }
  EXPECT_GT(detected, 0U);
}

TEST(PipelineEngine, InferencePathMatchesTrainingForwardBitwise) {
  // Deployment verdicts must never drift from what training measured: the
  // const batched path reproduces Sequential::forward exactly.
  core::PipelineEngine engine = deterministic_engine();
  const auto windows = synthetic_windows(9, 0x777);

  core::PipelineSession session(engine);
  const auto probs = session.detect_batch({windows.data(), windows.size()});
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const float training = engine.mutable_detector().predict_probability(windows[i]);
    EXPECT_EQ(std::memcmp(&training, &probs[i], sizeof(float)), 0)
        << "window " << i << ": " << training << " vs " << probs[i];
  }
}

TEST(PipelineEngine, OneEngineSharedByFourConcurrentSessionsIsDeterministic) {
  const core::PipelineEngine engine = deterministic_engine();
  const auto windows = synthetic_windows(24, 0xbeef);
  const monitor::WindowBatch batch{windows.data(), windows.size()};

  core::PipelineSession reference_session(engine);
  const auto reference = reference_session.process_batch(batch);

  constexpr int kThreads = 4;
  std::vector<std::vector<core::RoundResult>> results(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      core::PipelineSession session(engine);  // per-thread scratch
      results[static_cast<std::size_t>(t)] = session.process_batch(batch);
    });
  }
  for (auto& t : pool) t.join();

  for (int t = 0; t < kThreads; ++t) {
    const auto& r = results[static_cast<std::size_t>(t)];
    ASSERT_EQ(r.size(), reference.size()) << "thread " << t;
    for (std::size_t i = 0; i < r.size(); ++i) expect_bitwise_equal(r[i], reference[i], i);
  }
}

TEST(PipelineEngine, BatchLargerThanSessionCapacityIsChunked) {
  // A batch larger than the session capacity is scored in max_batch-sized
  // chunks (2+2+1 here) and must stay identical to the per-window path.
  expect_batch_matches_per_window(deterministic_engine(), synthetic_windows(5, 0x5150), 2);
}

TEST(PipelineEngine, ScoreBenchmarkEqualsPerWindowSessionLoop) {
  const core::PipelineEngine engine = deterministic_engine();

  monitor::Dataset test;
  test.mesh = MeshShape::square(kMeshSide);
  test.samples = synthetic_windows(16, 0xfeed);
  for (auto& s : test.samples) {
    if (s.under_attack) s.victim_truth = {1, 2, 3};
  }

  // The tables' protocol, one window at a time: detection over every
  // window, localization over the attack windows regardless of verdict.
  core::PipelineSession session(engine, 1);
  ConfusionMatrix detection;
  core::LocalizationScore localization;
  for (const auto& s : test.samples) {
    detection.add(session.process(s).detected, s.under_attack);
    if (s.under_attack) localization.add(session.localize(s).victims, s.victim_truth);
  }
  const core::Metrics4 det = core::detection_metrics(detection);
  const core::Metrics4 loc = localization.metrics();

  const core::BenchmarkScore score = core::score_benchmark(engine, "synthetic", test);
  EXPECT_EQ(score.benchmark, "synthetic");
  EXPECT_EQ(score.detection.accuracy, det.accuracy);
  EXPECT_EQ(score.detection.precision, det.precision);
  EXPECT_EQ(score.detection.recall, det.recall);
  EXPECT_EQ(score.detection.f1, det.f1);
  EXPECT_EQ(score.localization.accuracy, loc.accuracy);
  EXPECT_EQ(score.localization.precision, loc.precision);
  EXPECT_EQ(score.localization.recall, loc.recall);
  EXPECT_EQ(score.localization.f1, loc.f1);
}

TEST(PipelineEngine, SnapshotMakeEngineRejectsMismatchedBlobs) {
  const core::Dl2FenceConfig cfg =
      core::Dl2FenceConfig::paper_default(MeshShape::square(kMeshSide));
  std::istringstream det("garbage"), loc("garbage");
  EXPECT_THROW(core::PipelineEngine(cfg, det, loc), std::runtime_error);
}

TEST(PipelineEngine, RejectsModelsBuiltForDifferentMeshes) {
  // Sessions walk every model's frames with the detector's geometry; a
  // smaller localizer or temporal head would overrun its arena.
  core::Dl2FenceConfig small_localizer =
      core::Dl2FenceConfig::paper_default(MeshShape::square(kMeshSide));
  small_localizer.localizer.mesh = MeshShape::square(4);
  EXPECT_THROW(core::PipelineEngine{small_localizer}, std::invalid_argument);

  core::Dl2FenceConfig small_temporal =
      core::Dl2FenceConfig::paper_default(MeshShape::square(kMeshSide));
  small_temporal.enable_temporal = true;
  small_temporal.temporal.mesh = MeshShape::square(4);
  EXPECT_THROW(core::PipelineEngine{small_temporal}, std::invalid_argument);
}

}  // namespace
}  // namespace dl2f
