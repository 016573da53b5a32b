#include "monitor/dataset.hpp"

#include <gtest/gtest.h>

namespace dl2f::monitor {
namespace {

DatasetConfig tiny_config() {
  DatasetConfig cfg;
  cfg.mesh = MeshShape::square(8);
  cfg.scenarios_per_benchmark = 4;
  cfg.warmup_cycles = 300;
  cfg.attack_ramp_cycles = 300;
  cfg.benign_samples_per_run = 2;
  cfg.attack_samples_per_run = 2;
  return cfg;
}

TEST(Benchmark, NamesAndKinds) {
  EXPECT_EQ(Benchmark{traffic::SyntheticPattern::Tornado}.name(), "Tornado");
  EXPECT_FALSE(Benchmark{traffic::SyntheticPattern::Tornado}.is_parsec());
  EXPECT_EQ(Benchmark{traffic::ParsecWorkload::X264}.name(), "X264");
  EXPECT_TRUE(Benchmark{traffic::ParsecWorkload::X264}.is_parsec());
}

TEST(Benchmark, ListsCoverThePaperSet) {
  EXPECT_EQ(stp_benchmarks().size(), 6U);
  EXPECT_EQ(parsec_benchmarks().size(), 3U);
  EXPECT_EQ(all_benchmarks().size(), 9U);
}

TEST(Benchmark, SamplePeriods) {
  EXPECT_EQ(Benchmark{traffic::SyntheticPattern::Tornado}.sample_period(), 1000);
  EXPECT_GT(Benchmark{traffic::ParsecWorkload::Bodytrack}.sample_period(), 1000);
}

TEST(Dataset, GeneratesBalancedLabeledSamples) {
  const auto cfg = tiny_config();
  const Dataset data = generate_dataset(
      cfg, {Benchmark{traffic::SyntheticPattern::UniformRandom}});
  EXPECT_EQ(data.samples.size(), 4U * 4U);  // scenarios * (2 benign + 2 attack)
  EXPECT_EQ(data.attack_count(), 8U);
  EXPECT_EQ(data.benign_count(), 8U);
}

TEST(Dataset, BenignSamplesHaveEmptyTruth) {
  const Dataset data = generate_dataset(
      tiny_config(), {Benchmark{traffic::SyntheticPattern::UniformRandom}});
  for (const auto& s : data.samples) {
    if (s.under_attack) continue;
    EXPECT_TRUE(s.victim_truth.empty());
    EXPECT_TRUE(s.scenario.attackers.empty());
    for (Direction d : kMeshDirections) {
      EXPECT_FLOAT_EQ(frame_of(s.port_truth, d).sum(), 0.0F);
    }
  }
}

TEST(Dataset, AttackSamplesCarryConsistentTruth) {
  const auto cfg = tiny_config();
  const Dataset data = generate_dataset(
      cfg, {Benchmark{traffic::SyntheticPattern::UniformRandom}});
  const FrameGeometry geom(cfg.mesh);
  for (const auto& s : data.samples) {
    if (!s.under_attack) continue;
    EXPECT_FALSE(s.scenario.attackers.empty());
    EXPECT_FALSE(s.victim_truth.empty());
    EXPECT_EQ(s.victim_truth, s.scenario.ground_truth_victims(cfg.mesh));
    // Port-truth pixel count equals the number of ground-truth ports.
    float pixels = 0;
    for (Direction d : kMeshDirections) pixels += frame_of(s.port_truth, d).sum();
    EXPECT_FLOAT_EQ(pixels,
                    static_cast<float>(s.scenario.ground_truth_ports(cfg.mesh).size()));
  }
}

TEST(Dataset, PortTruthMarksOnlyTheRouteInputDirections) {
  const auto mesh = MeshShape::square(8);
  traffic::AttackScenario s;
  s.attackers = {0};
  s.victim = 18;  // east then north: West inputs + South inputs on route
  const DirectionalFrames masks = ground_truth_masks(FrameGeometry(mesh), s);
  const auto marked = [&](Direction d) { return frame_of(masks, d).sum() > 0.0F; };
  EXPECT_TRUE(marked(Direction::West));
  EXPECT_TRUE(marked(Direction::South));
  EXPECT_FALSE(marked(Direction::East));
  EXPECT_FALSE(marked(Direction::North));
}

TEST(Dataset, FramesHaveCanonicalShape) {
  const auto cfg = tiny_config();
  const Dataset data = generate_dataset(
      cfg, {Benchmark{traffic::SyntheticPattern::Neighbor}});
  for (const auto& s : data.samples) {
    for (Direction d : kMeshDirections) {
      EXPECT_EQ(frame_of(s.vco, d).rows(), 8);
      EXPECT_EQ(frame_of(s.vco, d).cols(), 7);
      EXPECT_EQ(frame_of(s.boc, d).rows(), 8);
      EXPECT_EQ(frame_of(s.boc, d).cols(), 7);
    }
  }
}

TEST(Dataset, AttackWindowsCarryMoreTrafficOnVictimRoute) {
  const auto cfg = tiny_config();
  const Dataset data = generate_dataset(
      cfg, {Benchmark{traffic::SyntheticPattern::UniformRandom}});
  double benign_max = 0, attack_max = 0;
  for (const auto& s : data.samples) {
    double m = 0;
    for (Direction d : kMeshDirections) m = std::max(m, (double)frame_of(s.boc, d).max_value());
    if (s.under_attack) {
      attack_max += m;
    } else {
      benign_max += m;
    }
  }
  EXPECT_GT(attack_max, benign_max);  // flooding dominates the window counts
}

TEST(Dataset, DeterministicForSeed) {
  const auto cfg = tiny_config();
  const auto a = generate_dataset(cfg, {Benchmark{traffic::SyntheticPattern::Shuffle}});
  const auto b = generate_dataset(cfg, {Benchmark{traffic::SyntheticPattern::Shuffle}});
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].under_attack, b.samples[i].under_attack);
    for (Direction d : kMeshDirections) {
      EXPECT_EQ(frame_of(a.samples[i].boc, d), frame_of(b.samples[i].boc, d));
    }
  }
}

TEST(DatasetSplit, StratifiedAndComplete) {
  const Dataset data = generate_dataset(
      tiny_config(), {Benchmark{traffic::SyntheticPattern::UniformRandom}});
  const auto split = split_dataset(data, 0.25, 9);
  EXPECT_EQ(split.train.samples.size() + split.test.samples.size(), data.samples.size());
  EXPECT_EQ(split.test.attack_count(), 2U);  // 25% of 8
  EXPECT_EQ(split.test.benign_count(), 2U);
  EXPECT_EQ(split.train.attack_count(), 6U);
}

TEST(DatasetSplit, ZeroFractionKeepsEverythingInTrain) {
  const Dataset data = generate_dataset(
      tiny_config(), {Benchmark{traffic::SyntheticPattern::UniformRandom}});
  const auto split = split_dataset(data, 0.0, 9);
  EXPECT_TRUE(split.test.samples.empty());
  EXPECT_EQ(split.train.samples.size(), data.samples.size());
}

}  // namespace
}  // namespace dl2f::monitor
