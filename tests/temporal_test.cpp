// Temporal detection head: bitwise parity of the batched path with the
// per-sample Sequential::forward, training determinism across
// worker-thread counts, the colluding-source suspect heuristic, and
// snapshot/campaign integration of the sequence head.
#include "temporal/adversarial.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "nn/inference.hpp"
#include "runtime/campaign.hpp"
#include "staging.hpp"
#include "temporal/features.hpp"

namespace dl2f::temporal {
namespace {

constexpr std::int32_t kMeshSide = 8;

TemporalDetectorConfig small_config() {
  TemporalDetectorConfig cfg;
  cfg.mesh = MeshShape::square(kMeshSide);
  cfg.sequence_length = 4;
  return cfg;
}

SequenceDatasetConfig small_dataset_config() {
  SequenceDatasetConfig cfg;
  cfg.mesh = MeshShape::square(kMeshSide);
  cfg.sequence_length = 4;
  cfg.windows_per_run = 6;
  cfg.runs_per_cell = 1;
  return cfg;
}

std::vector<monitor::Benchmark> one_workload() {
  return {monitor::Benchmark{traffic::SyntheticPattern::UniformRandom}};
}

std::string weights_of(const TemporalDetector& detector) {
  std::ostringstream os;
  detector.model().save(os);
  return os.str();
}

TEST(TemporalDataset, GridIsLabeledAndMitigationTailIsBenign) {
  const SequenceDatasetConfig cfg = small_dataset_config();
  const SequenceDataset data = generate_sequence_dataset(cfg, {"static", "pulse"}, one_workload());

  // One sequence per simulated window, both classes populated.
  ASSERT_EQ(data.samples.size(), 2U * 6U);
  EXPECT_GT(data.attack_count(), 0U);
  EXPECT_GT(data.benign_count(), 0U);
  for (const auto& s : data.samples) {
    EXPECT_EQ(s.windows.size(), 4U);
    EXPECT_EQ(s.workload, "Uniform Random");
  }

  // Windows 0-2: benign prefix (the default attack starts at window 3);
  // final third (windows 4-5): attackers are quarantined, so the label
  // must flip back to benign even though the sequence still carries attack
  // windows in its history. (Run 0 is the static family — continuously
  // on, so window 3 is attack; pulse's mid-run labels depend on its duty
  // cycle, so only the prefix and tail invariants are asserted for run 1.)
  EXPECT_TRUE(data.samples[3].under_attack);
  for (const std::size_t base : {std::size_t{0}, std::size_t{6}}) {
    for (const std::size_t w : {0U, 1U, 2U, 4U, 5U}) {
      EXPECT_FALSE(data.samples[base + w].under_attack) << "run " << base / 6 << " window " << w;
    }
  }
}

TEST(TemporalDataset, GenerationIsDeterministic) {
  const SequenceDatasetConfig cfg = small_dataset_config();
  const SequenceDataset a = generate_sequence_dataset(cfg, {"pulse"}, one_workload());
  const SequenceDataset b = generate_sequence_dataset(cfg, {"pulse"}, one_workload());
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].under_attack, b.samples[i].under_attack);
    for (std::size_t w = 0; w < a.samples[i].windows.size(); ++w) {
      EXPECT_EQ(a.samples[i].windows[w].vco, b.samples[i].windows[w].vco);
      EXPECT_EQ(a.samples[i].windows[w].ni_load, b.samples[i].windows[w].ni_load);
    }
  }
}

TEST(TemporalDataset, RejectsUnknownFamilies) {
  EXPECT_THROW(
      (void)generate_sequence_dataset(small_dataset_config(), {"no-such-family"}, one_workload()),
      std::invalid_argument);
}

TEST(TemporalDetectorModel, BatchedInferenceBitwiseMatchesReferenceForward) {
  TemporalDetector detector(small_config());
  Rng rng(11);
  detector.model().init_weights(rng);

  const SequenceDataset data =
      generate_sequence_dataset(small_dataset_config(), {"static"}, one_workload());
  ASSERT_GE(data.samples.size(), 3U);

  nn::InferenceContext ctx;
  ctx.bind(detector.model(), detector.input_shape(), 3);
  nn::Tensor4& in = ctx.input(3);
  for (std::int32_t slot = 0; slot < 3; ++slot) {
    const auto view = data.samples[static_cast<std::size_t>(slot)].view();
    detector.preprocess_into({view.data(), view.size()}, in, slot);
  }
  const nn::Tensor4& out = detector.model().infer_batch(ctx);

  for (std::int32_t slot = 0; slot < 3; ++slot) {
    const auto view = data.samples[static_cast<std::size_t>(slot)].view();
    // Bitwise equality, not near-equality: the batched path and the
    // per-sample forward must run the identical accumulation order.
    const nn::Tensor3 staged = staged_sequence(detector, {view.data(), view.size()});
    EXPECT_EQ(out.sample(slot)[0], detector.model().forward(staged).data()[0]);
  }
}

TEST(TemporalTraining, WeightsAreByteIdenticalAcrossThreadCounts) {
  const SequenceDataset data =
      generate_sequence_dataset(small_dataset_config(), {"static", "pulse"}, one_workload());

  std::string blobs[3];
  const std::int32_t threads[3] = {1, 2, 4};
  for (std::size_t i = 0; i < 3; ++i) {
    TemporalDetector detector(small_config());
    const nn::TrainReport report =
        train_temporal_detector(detector, data, {.epochs = 2, .seed = 99, .threads = threads[i]});
    EXPECT_EQ(report.epochs_run, 2);
    blobs[i] = weights_of(detector);
  }
  EXPECT_FALSE(blobs[0].empty());
  EXPECT_EQ(blobs[0], blobs[1]);
  EXPECT_EQ(blobs[0], blobs[2]);
}

// Sequence views are staged through kMaxSequenceLength-entry stack
// buffers, and the conv over time spans kTemporalKernel windows, so an
// out-of-range length must be refused up front in every build type, not
// only where assert() is live.
TEST(TemporalDetectorModel, RejectsOutOfRangeSequenceLength) {
  for (const std::int32_t t : {0, kTemporalKernel - 1, kMaxSequenceLength + 1}) {
    TemporalDetectorConfig cfg = small_config();
    cfg.sequence_length = t;
    EXPECT_THROW(TemporalDetector{cfg}, std::invalid_argument) << "sequence_length " << t;
  }
  for (const std::int32_t t : {kTemporalKernel, kMaxSequenceLength}) {
    TemporalDetectorConfig cfg = small_config();
    cfg.sequence_length = t;
    EXPECT_NO_THROW(TemporalDetector{cfg}) << "sequence_length " << t;
  }

  SequenceDatasetConfig data_cfg = small_dataset_config();
  data_cfg.sequence_length = kMaxSequenceLength + 1;
  EXPECT_THROW((void)generate_sequence_dataset(data_cfg, {"static"}, one_workload()),
               std::invalid_argument);
}

TEST(TemporalTraining, RejectsDatasetsOfAnotherSequenceShape) {
  const SequenceDataset data =
      generate_sequence_dataset(small_dataset_config(), {"static"}, one_workload());
  ASSERT_GE(data.samples.size(), 2U);
  const nn::TrainConfig train{.epochs = 1};

  SequenceDataset wrong_length = data;
  wrong_length.sequence_length = 5;
  SequenceDataset short_sample = data;
  short_sample.samples[1].windows.pop_back();
  // A window of a larger mesh would overrun the staged sequence slot, and
  // the source-rate plane reads one ni_load value per node.
  SequenceDataset other_mesh = data;
  const monitor::FrameGeometry larger(MeshShape::square(kMeshSide + 8));
  for (Frame& f : other_mesh.samples[1].windows[2].boc) f = larger.make_frame();
  SequenceDataset short_ni_load = data;
  short_ni_load.samples[0].windows[0].ni_load.assign(3, 1.0F);
  for (const SequenceDataset* bad : {&wrong_length, &short_sample, &other_mesh, &short_ni_load}) {
    TemporalDetector detector(small_config());
    const std::string before = weights_of(detector);
    EXPECT_THROW((void)train_temporal_detector(detector, *bad, train), std::invalid_argument);
    EXPECT_EQ(weights_of(detector), before);
  }
  // Scoring stages each sequence into the same slot shape. (wrong_length
  // only mislabels the dataset: its sequences still fit.)
  core::Dl2FenceConfig cfg = core::Dl2FenceConfig::paper_default(small_config().mesh);
  cfg.enable_temporal = true;
  cfg.temporal = small_config();
  const core::PipelineEngine engine(cfg);
  core::PipelineSession session(engine);
  const auto score_all = [&](const SequenceDataset& d) {
    for (const auto& seq : d.samples) (void)session.detect_sequence(seq.view());
  };
  for (const SequenceDataset* bad : {&short_sample, &other_mesh, &short_ni_load}) {
    EXPECT_THROW(score_all(*bad), std::invalid_argument);
  }
}

TEST(SourceSuspects, FlagsCollusionAndRespectsTheMinSourcesGate) {
  const MeshShape mesh = MeshShape::square(kMeshSide);
  const auto make_window = [&](const std::vector<NodeId>& hot) {
    monitor::FrameSample s;
    s.window_cycles = 1000;
    s.ni_load.assign(static_cast<std::size_t>(mesh.rows() * mesh.cols()), 50.0F);  // 0.05 f/c
    for (const NodeId n : hot) s.ni_load[static_cast<std::size_t>(n)] = 600.0F;  // 0.6
    return s;
  };
  const SuspectConfig cfg;

  // Three synchronized hot sources across the sequence -> all three named.
  const std::vector<NodeId> colluders = {5, 27, 44};
  std::vector<monitor::FrameSample> windows(3, make_window(colluders));
  std::vector<const monitor::FrameSample*> view;
  for (const auto& w : windows) view.push_back(&w);
  EXPECT_EQ(source_suspects({view.data(), view.size()}, mesh, cfg), colluders);

  // Two hot sources stay under min_sources: the assist must not fire
  // (that regime belongs to the segmentation localizer).
  std::vector<monitor::FrameSample> two(3, make_window({5, 27}));
  view.clear();
  for (const auto& w : two) view.push_back(&w);
  EXPECT_TRUE(source_suspects({view.data(), view.size()}, mesh, cfg).empty());

  // Uniform benign load -> no suspects at all.
  std::vector<monitor::FrameSample> benign(3, make_window({}));
  view.clear();
  for (const auto& w : benign) view.push_back(&w);
  EXPECT_TRUE(source_suspects({view.data(), view.size()}, mesh, cfg).empty());
}

/// Deterministically initialized (untrained) engine with a temporal head.
core::PipelineEngine temporal_engine() {
  core::Dl2FenceConfig cfg = core::Dl2FenceConfig::paper_default(MeshShape::square(kMeshSide));
  cfg.enable_temporal = true;
  cfg.temporal.mesh = MeshShape::square(kMeshSide);
  core::PipelineEngine engine(cfg);
  Rng det_rng(7), loc_rng(8), tmp_rng(9);
  engine.mutable_detector().model().init_weights(det_rng);
  engine.mutable_localizer().model().init_weights(loc_rng);
  engine.mutable_temporal().model().init_weights(tmp_rng);
  return engine;
}

TEST(TemporalSnapshot, CaptureMakeEngineRoundTripsTemporalWeightsExactly) {
  const core::PipelineEngine engine = temporal_engine();
  const runtime::ModelSnapshot snap = runtime::ModelSnapshot::capture(engine);
  EXPECT_FALSE(snap.temporal_weights.empty());
  EXPECT_EQ(snap.temporal_weights, weights_of(engine.temporal()));

  const core::PipelineEngine loaded = snap.make_engine();
  ASSERT_TRUE(loaded.has_temporal());
  // Re-capturing the loaded engine reproduces the blob byte for byte.
  EXPECT_EQ(runtime::ModelSnapshot::capture(loaded).temporal_weights, snap.temporal_weights);
}

TEST(TemporalCampaign, ByteIdenticalAcrossWorkerThreadCountsWithSequenceHead) {
  const runtime::ModelSnapshot snap = runtime::ModelSnapshot::capture(temporal_engine());

  runtime::CampaignConfig cfg;
  cfg.families = {"static", "colluding"};
  cfg.seeds = {1, 2};
  cfg.windows = 5;
  cfg.params.mesh = MeshShape::square(kMeshSide);
  cfg.params.attack_start = 1000;
  cfg.defense.window_cycles = 500;

  cfg.threads = 1;
  const std::string one = runtime::run_campaign(cfg, snap).serialize();
  cfg.threads = 2;
  const std::string two = runtime::run_campaign(cfg, snap).serialize();
  cfg.threads = 4;
  const std::string four = runtime::run_campaign(cfg, snap).serialize();

  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

}  // namespace
}  // namespace dl2f::temporal
