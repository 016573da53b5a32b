// Engine/session split: batched scoring must be bitwise-identical to the
// per-window session path (and to the training-time forward pass), and one
// immutable PipelineEngine must be safely shareable across concurrent
// sessions with deterministic results. Loading one from a ModelSnapshot
// must refuse every malformed weight blob with a typed error.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/evaluation.hpp"
#include "monitor/dataset.hpp"
#include "runtime/campaign.hpp"
#include "staging.hpp"

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
  nn::Sequential& model = engine.mutable_detector().model();
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const float training = model.forward(staged_window(engine.detector(), windows[i])).data()[0];
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
  runtime::ModelSnapshot snap;
  snap.config = core::Dl2FenceConfig::paper_default(MeshShape::square(kMeshSide));
  snap.detector_weights = snap.localizer_weights = "garbage";
  EXPECT_THROW((void)snap.make_engine(), std::runtime_error);
}

/// Capture of a deterministically initialized engine with a temporal head.
runtime::ModelSnapshot temporal_snapshot(std::int32_t side) {
  core::Dl2FenceConfig cfg = core::Dl2FenceConfig::paper_default(MeshShape::square(side));
  cfg.enable_temporal = true;
  core::PipelineEngine engine(cfg);
  Rng rng(static_cast<std::uint64_t>(side));
  engine.mutable_detector().model().init_weights(rng);
  engine.mutable_localizer().model().init_weights(rng);
  engine.mutable_temporal().model().init_weights(rng);
  return runtime::ModelSnapshot::capture(engine);
}

using Blob = std::string runtime::ModelSnapshot::*;
constexpr std::array<Blob, 3> kBlobs{&runtime::ModelSnapshot::detector_weights,
                                     &runtime::ModelSnapshot::localizer_weights,
                                     &runtime::ModelSnapshot::temporal_weights};

/// Byte offsets of the per-block u64 size fields of a Sequential::save
/// blob: after the u32 magic and u32 count, each block is its size field
/// followed by that many floats.
std::vector<std::size_t> block_size_offsets(const std::string& blob) {
  std::vector<std::size_t> offsets;
  for (std::size_t off = 8; off + 8 <= blob.size();) {
    std::uint64_t n = 0;
    std::memcpy(&n, blob.data() + off, sizeof n);
    offsets.push_back(off);
    off += 8 + n * sizeof(float);
  }
  return offsets;
}

// Seeded mutation harness over ModelSnapshot::make_engine and
// Sequential::load: every malformed blob must be refused with
// std::runtime_error (never a crash or an out-of-bounds read, which the
// sanitizer build would report), while a blob whose float payload alone
// is corrupted is well formed and loads.
TEST(ModelSnapshotMutation, MalformedBlobsThrowAndPayloadFlipsLoad) {
  const runtime::ModelSnapshot good = temporal_snapshot(kMeshSide);
  ASSERT_NO_THROW((void)good.make_engine());
  Rng rng(0x4d17);
  const auto expect_refused = [&](const runtime::ModelSnapshot& bad, const std::string& what) {
    EXPECT_THROW((void)bad.make_engine(), std::runtime_error) << what;
  };
  for (const Blob blob : kBlobs) {
    const std::string& bytes = good.*blob;
    ASSERT_GT(bytes.size(), 8U);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      runtime::ModelSnapshot bad = good;
      (bad.*blob).resize(len);
      expect_refused(bad, "truncated to " + std::to_string(len));
    }
    for (const std::size_t extra : {1, 3, 4, 8, 64}) {
      runtime::ModelSnapshot bad = good;
      for (std::size_t i = 0; i < extra; ++i) {
        (bad.*blob).push_back(static_cast<char>(rng.uniform_int(0, 255)));
      }
      expect_refused(bad, std::to_string(extra) + " appended bytes");
    }
    // Every bit of the magic and count fields and of each block-size field.
    std::vector<std::size_t> header_bytes{0, 1, 2, 3, 4, 5, 6, 7};
    const std::vector<std::size_t> sizes = block_size_offsets(bytes);
    ASSERT_FALSE(sizes.empty());
    for (const std::size_t off : sizes) {
      for (std::size_t b = 0; b < 8; ++b) header_bytes.push_back(off + b);
    }
    for (const std::size_t at : header_bytes) {
      for (int bit = 0; bit < 8; ++bit) {
        runtime::ModelSnapshot bad = good;
        (bad.*blob)[at] = static_cast<char>((bad.*blob)[at] ^ (1 << bit));
        expect_refused(bad, "bit " + std::to_string(bit) + " of byte " + std::to_string(at));
      }
    }
    // Flips inside the float payloads keep the blob well formed.
    for (int trial = 0; trial < 64; ++trial) {
      const std::size_t block = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sizes.size()) - 1));
      const std::size_t begin = sizes[block] + 8;
      const std::size_t end = block + 1 < sizes.size() ? sizes[block + 1] : bytes.size();
      ASSERT_LT(begin, end);
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(begin), static_cast<std::int64_t>(end) - 1));
      runtime::ModelSnapshot flipped = good;
      (flipped.*blob)[at] = static_cast<char>((flipped.*blob)[at] ^ (1 << rng.uniform_int(0, 7)));
      EXPECT_NO_THROW((void)flipped.make_engine()) << "payload byte " << at;
    }
  }

  // Blobs of another mesh's models: the detector's and the temporal head's
  // dense layers are sized by the mesh, so a config that disagrees with
  // either blob must be refused.
  const runtime::ModelSnapshot other = temporal_snapshot(kMeshSide + 2);
  for (const Blob blob : {kBlobs[0], kBlobs[2]}) {
    runtime::ModelSnapshot mixed = other;
    mixed.*blob = good.*blob;
    expect_refused(mixed, "blob of another mesh");
  }

  // The temporal blob and config.enable_temporal must agree.
  runtime::ModelSnapshot no_blob = good;
  no_blob.temporal_weights.clear();
  expect_refused(no_blob, "temporal head without its blob");
  runtime::ModelSnapshot no_head = good;
  no_head.config.enable_temporal = false;
  expect_refused(no_head, "temporal blob without the head");
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

TEST(PipelineSession, RejectsWindowsFromAnotherMesh) {
  // Every scoring method stages a window into a slot sized for the
  // engine's mesh: a larger window overran it (a segfault), a smaller one
  // was scored against whatever the slot held before.
  for (const auto& [model_side, window_side] : {std::pair{8, 16}, std::pair{16, 8}}) {
    core::Dl2FenceConfig cfg = core::Dl2FenceConfig::paper_default(MeshShape::square(model_side));
    cfg.enable_temporal = true;
    const core::PipelineEngine engine(cfg);
    core::PipelineSession session(engine);
    const monitor::FrameGeometry geom(MeshShape::square(window_side));
    Rng rng(3);
    monitor::Dataset data;
    data.mesh = geom.mesh();
    data.samples = {synthetic_window(geom, rng, true), synthetic_window(geom, rng, false)};
    const monitor::FrameSample& w = data.samples[0];
    const std::vector<const monitor::FrameSample*> seq(
        static_cast<std::size_t>(cfg.temporal.sequence_length), &w);
    const std::string sides = std::to_string(model_side) + " vs " + std::to_string(window_side);
    EXPECT_THROW((void)session.process(w), std::invalid_argument) << sides;
    EXPECT_THROW((void)session.process_batch(data.windows()), std::invalid_argument) << sides;
    EXPECT_THROW((void)session.detect_batch(data.windows()), std::invalid_argument) << sides;
    EXPECT_THROW((void)session.localize(w), std::invalid_argument) << sides;
    EXPECT_THROW((void)session.process_sequence(seq), std::invalid_argument) << sides;
    EXPECT_THROW((void)session.detect_sequence(seq), std::invalid_argument) << sides;
    EXPECT_THROW((void)core::score_benchmark(engine, "other", data), std::invalid_argument)
        << sides;
  }

  // The temporal head reads ni_load per node: empty is allowed (read as
  // zero), one value per node is required otherwise.
  core::Dl2FenceConfig cfg = core::Dl2FenceConfig::paper_default(MeshShape::square(kMeshSide));
  cfg.enable_temporal = true;
  const core::PipelineEngine engine(cfg);
  core::PipelineSession session(engine);
  const monitor::FrameGeometry geom(MeshShape::square(kMeshSide));
  Rng rng(4);
  monitor::FrameSample w = synthetic_window(geom, rng, false);
  const std::vector<const monitor::FrameSample*> seq(
      static_cast<std::size_t>(cfg.temporal.sequence_length), &w);
  EXPECT_NO_THROW((void)session.detect_sequence(seq));
  w.ni_load.assign(static_cast<std::size_t>(geom.mesh().node_count()), 1.0F);
  EXPECT_NO_THROW((void)session.detect_sequence(seq));
  w.ni_load.push_back(1.0F);
  EXPECT_THROW((void)session.detect_sequence(seq), std::invalid_argument);

  // The head's input slot holds exactly sequence_length windows.
  w.ni_load.clear();
  const std::vector<const monitor::FrameSample*> longer(seq.size() + 1, &w);
  EXPECT_THROW((void)session.detect_sequence(longer), std::invalid_argument);
  EXPECT_THROW((void)session.detect_sequence({seq.data(), seq.size() - 1}), std::invalid_argument);
}

}  // namespace
}  // namespace dl2f
