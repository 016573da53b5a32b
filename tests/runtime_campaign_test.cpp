// Campaign engine: grid order, model-snapshot round-trips, and the core
// contract that results are byte-identical for any worker-thread count.
#include "runtime/campaign.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace dl2f::runtime {
namespace {

constexpr std::int32_t kMeshSide = 8;

/// Deterministically initialized (but untrained) pipeline: campaign
/// mechanics do not care about model quality, only about determinism.
ModelSnapshot deterministic_snapshot() {
  core::PipelineEngine engine(core::Dl2FenceConfig::paper_default(MeshShape::square(kMeshSide)));
  Rng det_rng(7), loc_rng(8);
  engine.mutable_detector().model().init_weights(det_rng);
  engine.mutable_localizer().model().init_weights(loc_rng);
  return ModelSnapshot::capture(engine);
}

CampaignConfig small_campaign() {
  CampaignConfig cfg;
  cfg.families = {"static", "multi-victim"};
  cfg.seeds = {1, 2, 3};
  cfg.windows = 4;
  cfg.params.mesh = MeshShape::square(kMeshSide);
  cfg.params.attack_start = 1000;
  cfg.defense.window_cycles = 500;
  return cfg;
}

TEST(ModelSnapshot, RoundTripsWeightsExactly) {
  const ModelSnapshot snap = deterministic_snapshot();
  EXPECT_FALSE(snap.detector_weights.empty());
  EXPECT_FALSE(snap.localizer_weights.empty());

  // Loading and re-capturing reproduces every blob byte for byte.
  const ModelSnapshot again = ModelSnapshot::capture(snap.make_engine());
  EXPECT_EQ(again.detector_weights, snap.detector_weights);
  EXPECT_EQ(again.localizer_weights, snap.localizer_weights);
  EXPECT_EQ(again.temporal_weights, snap.temporal_weights);
}

TEST(ModelSnapshot, TemporalFlagAndBlobMustTravelTogether) {
  // Config enables the temporal head, but the blob is missing: loading
  // must fail instead of scoring with an untrained head.
  ModelSnapshot missing_blob = deterministic_snapshot();
  missing_blob.config.enable_temporal = true;
  missing_blob.config.temporal.mesh = missing_blob.config.detector.mesh;
  EXPECT_THROW((void)missing_blob.make_engine(), std::runtime_error);

  // The reverse mismatch: a temporal blob the config cannot hold.
  ModelSnapshot stray_blob = deterministic_snapshot();
  stray_blob.temporal_weights = "not empty";
  EXPECT_THROW((void)stray_blob.make_engine(), std::runtime_error);
}

TEST(Campaign, JobsComeBackInGridOrder) {
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = small_campaign();
  const CampaignResult result = run_campaign(cfg, snap);

  ASSERT_EQ(result.jobs.size(), cfg.families.size() * cfg.seeds.size());
  std::size_t i = 0;
  for (const auto& family : cfg.families) {
    for (const std::uint64_t seed : cfg.seeds) {
      EXPECT_EQ(result.jobs[i].family, family);
      EXPECT_EQ(result.jobs[i].seed, seed);
      EXPECT_EQ(result.jobs[i].summary.windows, cfg.windows);
      ++i;
    }
  }
}

TEST(Campaign, ByteIdenticalAcrossWorkerThreadCounts) {
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = small_campaign();

  cfg.threads = 1;
  const std::string one = run_campaign(cfg, snap).serialize();
  cfg.threads = 3;
  const std::string three = run_campaign(cfg, snap).serialize();
  cfg.threads = 8;  // more workers than jobs
  const std::string eight = run_campaign(cfg, snap).serialize();

  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, three);
  EXPECT_EQ(one, eight);
}

CampaignConfig three_axis_campaign() {
  CampaignConfig cfg = small_campaign();
  cfg.families = {"static", "pulse", "colluding", "mimicry"};
  cfg.workloads = {monitor::Benchmark{traffic::SyntheticPattern::UniformRandom},
                   monitor::Benchmark{traffic::SyntheticPattern::BitComplement},
                   monitor::Benchmark{traffic::ParsecWorkload::X264}};
  cfg.seeds = {1, 2};
  cfg.windows = 3;
  return cfg;
}

TEST(Campaign, ThreeAxisGridComesBackFamilyWorkloadSeedOrdered) {
  const ModelSnapshot snap = deterministic_snapshot();
  const CampaignConfig cfg = three_axis_campaign();
  const CampaignResult result = run_campaign(cfg, snap);

  ASSERT_EQ(result.jobs.size(), cfg.families.size() * cfg.workloads.size() * cfg.seeds.size());
  std::size_t i = 0;
  for (const auto& family : cfg.families) {
    for (const auto& workload : cfg.workloads) {
      for (const std::uint64_t seed : cfg.seeds) {
        EXPECT_EQ(result.jobs[i].family, family);
        EXPECT_EQ(result.jobs[i].workload, workload.name());
        EXPECT_EQ(result.jobs[i].seed, seed);
        ++i;
      }
    }
  }
}

TEST(Campaign, ThreeAxisGridIsByteIdenticalAcrossWorkerThreadCounts) {
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = three_axis_campaign();

  cfg.threads = 1;
  const std::string one = run_campaign(cfg, snap).serialize();
  cfg.threads = 2;
  const std::string two = run_campaign(cfg, snap).serialize();
  cfg.threads = 4;
  const std::string four = run_campaign(cfg, snap).serialize();

  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  // The dump names every workload, so equal strings really compare the
  // whole three-axis grid.
  EXPECT_NE(one.find("workload=Uniform Random"), std::string::npos);
  EXPECT_NE(one.find("workload=X264"), std::string::npos);
}

TEST(Campaign, TraceWorkloadFamiliesAreByteIdenticalAcrossThreadCounts) {
  // The request/reply workloads (src/workload/) carry much more internal
  // state than the synthetic generators — outstanding windows, reply
  // queues, delivery listeners — so they get their own worker-count
  // determinism check over the full new-family axis.
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = small_campaign();
  cfg.families = {"static", "pulse"};
  cfg.workloads = monitor::trace_benchmarks();
  cfg.seeds = {1, 2};
  cfg.windows = 3;

  cfg.threads = 1;
  const std::string one = run_campaign(cfg, snap).serialize();
  cfg.threads = 2;
  const std::string two = run_campaign(cfg, snap).serialize();
  cfg.threads = 4;
  const std::string four = run_campaign(cfg, snap).serialize();

  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("workload=trace-replay"), std::string::npos);
  EXPECT_NE(one.find("workload=openloop-burst"), std::string::npos);
  EXPECT_NE(one.find("workload=memhog"), std::string::npos);
}

TEST(Campaign, EmptyWorkloadAxisFallsBackToParamsBenign) {
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = small_campaign();  // cfg.workloads stays empty
  const CampaignResult result = run_campaign(cfg, snap);
  ASSERT_EQ(result.jobs.size(), cfg.families.size() * cfg.seeds.size());
  for (const auto& job : result.jobs) {
    EXPECT_EQ(job.workload, cfg.params.benign.name());
  }
}

TEST(Campaign, WorkloadAxisChangesTheTraffic) {
  // The same (family, seed) cell under two different workloads must not
  // produce identical summaries — the workload axis has to matter.
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = small_campaign();
  cfg.families = {"static"};
  cfg.seeds = {1};
  cfg.workloads = {monitor::Benchmark{traffic::SyntheticPattern::UniformRandom},
                   monitor::Benchmark{traffic::SyntheticPattern::Neighbor}};
  const CampaignResult result = run_campaign(cfg, snap);
  ASSERT_EQ(result.jobs.size(), 2U);
  EXPECT_NE(result.jobs[0].summary.baseline_latency, result.jobs[1].summary.baseline_latency);
}

TEST(Campaign, RejectsMalformedGridsUpfront) {
  const ModelSnapshot snap = deterministic_snapshot();

  CampaignConfig typo = small_campaign();
  typo.families = {"static", "victim_sweep"};  // underscore typo
  EXPECT_THROW((void)run_campaign(typo, snap), std::invalid_argument);

  CampaignConfig wrong_mesh = small_campaign();
  wrong_mesh.params.mesh = MeshShape::square(kMeshSide + 2);
  EXPECT_THROW((void)run_campaign(wrong_mesh, snap), std::invalid_argument);

  // An empty window would run every job to all-zero metrics; the grid
  // check names the field before any worker builds a runtime.
  CampaignConfig empty_window = small_campaign();
  empty_window.defense.window_cycles = 0;
  empty_window.threads = 2;
  try {
    (void)run_campaign(empty_window, snap);
    ADD_FAILURE() << "window_cycles = 0 ran";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("run_campaign"), std::string::npos) << e.what();
  }
}

TEST(Campaign, AJobsExceptionReachesTheCallerAtAnyWorkerCount) {
  // A scenario that refuses its params fails inside a worker, after the
  // grid passed validation; the caller must see that exception, never a
  // terminated process or a half-filled result.
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = small_campaign();
  cfg.families = {"transient"};
  cfg.params.fir = 1.5;
  for (const std::int32_t threads : {1, 3}) {
    cfg.threads = threads;
    EXPECT_THROW((void)run_campaign(cfg, snap), std::invalid_argument) << threads << " threads";
  }
}

TEST(Campaign, FamilyTableHasOneRowPerFamily) {
  const ModelSnapshot snap = deterministic_snapshot();
  CampaignConfig cfg = small_campaign();
  const CampaignResult result = run_campaign(cfg, snap);

  std::ostringstream os;
  os << result.family_table(cfg.families);
  const std::string table = os.str();
  EXPECT_NE(table.find("static"), std::string::npos);
  EXPECT_NE(table.find("multi-victim"), std::string::npos);
  EXPECT_NE(table.find("Attacker F1"), std::string::npos);
}

}  // namespace
}  // namespace dl2f::runtime
