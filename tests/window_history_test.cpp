// Window-sequence assembly: warmup padding, ring wraparound, and the
// bitwise identity between sequence feature planes and independently
// recomputed per-window features (the contract that lets the temporal
// head share planes with the single-window pipeline).
#include "monitor/window_history.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "staging.hpp"
#include "temporal/detector.hpp"
#include "temporal/features.hpp"

namespace dl2f::temporal {
namespace {

constexpr std::int32_t kMeshSide = 8;
constexpr std::int32_t kRows = kMeshSide;
constexpr std::int32_t kCols = kMeshSide - 1;  // frames are R x (R-1)

/// Synthetic monitoring window with every field a deterministic function
/// of `base`, so distinct bases give fully distinct samples.
monitor::FrameSample make_sample(float base) {
  monitor::FrameSample s;
  for (std::size_t d = 0; d < s.vco.size(); ++d) {
    Frame vco(kRows, kCols);
    Frame boc(kRows, kCols);
    for (std::int32_t r = 0; r < kRows; ++r) {
      for (std::int32_t c = 0; c < kCols; ++c) {
        vco.at(r, c) = base + 0.11F * static_cast<float>(d) + 0.013F * static_cast<float>(r) +
                       0.0017F * static_cast<float>(c);
        boc.at(r, c) = 50.0F * base + 7.0F * static_cast<float>(d) +
                       static_cast<float>(r * kCols + c);
      }
    }
    s.vco[d] = vco;
    s.boc[d] = boc;
  }
  s.ni_load.resize(static_cast<std::size_t>(kMeshSide * kMeshSide));
  for (std::size_t n = 0; n < s.ni_load.size(); ++n) {
    s.ni_load[n] = 20.0F + 100.0F * base + static_cast<float>(n);
  }
  s.window_cycles = 1000;
  return s;
}

/// The value that identifies which sample a view entry points at.
float id_of(const monitor::FrameSample& s) { return s.vco[0].at(0, 0); }

TEST(WindowHistory, WarmupRepeatsTheOldestLiveWindowAtTheFront) {
  monitor::WindowHistory h(4);
  h.push(make_sample(0.1F));
  EXPECT_EQ(h.live(), 1);

  auto view = h.view();
  ASSERT_EQ(view.size(), 4U);
  for (const monitor::FrameSample* s : view) EXPECT_EQ(s, view[0]);
  EXPECT_EQ(&h.latest(), view[3]);

  h.push(make_sample(0.2F));
  view = h.view();
  EXPECT_FLOAT_EQ(id_of(*view[0]), 0.1F);  // oldest live window, repeated
  EXPECT_FLOAT_EQ(id_of(*view[1]), 0.1F);
  EXPECT_FLOAT_EQ(id_of(*view[2]), 0.1F);
  EXPECT_FLOAT_EQ(id_of(*view[3]), 0.2F);
  EXPECT_LT(h.live(), 4);  // still padding
}

TEST(WindowHistory, RingWraparoundStaysChronologicalPastCapacity) {
  monitor::WindowHistory h(4);
  for (std::int32_t i = 0; i < 6; ++i) {
    h.push(make_sample(static_cast<float>(i)));
    EXPECT_EQ(h.live(), std::min(i + 1, 4));
  }
  EXPECT_EQ(h.live(), 4);  // no padding past capacity

  // After 6 pushes into a 4-deep ring, the view is windows 2..5 in order.
  const auto view = h.view();
  ASSERT_EQ(view.size(), 4U);
  for (std::int32_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(id_of(*view[static_cast<std::size_t>(j)]), static_cast<float>(2 + j));
  }
  EXPECT_FLOAT_EQ(id_of(h.latest()), 5.0F);
}

class SequenceFeatures : public ::testing::Test {
 protected:
  static TemporalDetectorConfig config() {
    TemporalDetectorConfig cfg;
    cfg.mesh = MeshShape::square(kMeshSide);
    cfg.sequence_length = 4;
    return cfg;
  }
  static std::vector<const monitor::FrameSample*> view_of(
      const std::vector<monitor::FrameSample>& windows) {
    std::vector<const monitor::FrameSample*> v;
    for (const auto& w : windows) v.push_back(&w);
    return v;
  }
};

TEST_F(SequenceFeatures, PerWindowChannelsBitwiseMatchIndependentRecompute) {
  const TemporalDetector detector(config());
  std::vector<monitor::FrameSample> windows;
  for (std::int32_t t = 0; t < 4; ++t) windows.push_back(make_sample(0.3F * static_cast<float>(t)));
  const auto view = view_of(windows);
  const nn::Tensor3 x = staged_sequence(detector, {view.data(), view.size()});

  const auto hw = static_cast<std::size_t>(kRows * kCols);
  std::vector<float> raw_prev(hw), raw(hw), src_raw(hw), src_raw_prev(hw);
  for (std::int32_t t = 0; t < 4; ++t) {
    const monitor::FrameSample& s = windows[static_cast<std::size_t>(t)];
    const std::int32_t ch0 = t * kChannelsPerWindow;

    // Channels 0-3: the raw directional VCO frames, verbatim.
    for (std::int32_t d = 0; d < 4; ++d) {
      for (std::int32_t r = 0; r < kRows; ++r) {
        for (std::int32_t c = 0; c < kCols; ++c) {
          EXPECT_EQ(x.at(ch0 + d, r, c), s.vco[static_cast<std::size_t>(d)].at(r, c));
        }
      }
    }

    // Channel 4: squashed pressure rate, recomputed from scratch.
    // Channel 5: signed squashed delta of the raw rates (exactly zero at
    // the first position).
    pressure_rate_into(s, raw.data(), hw);
    for (std::int32_t r = 0; r < kRows; ++r) {
      for (std::int32_t c = 0; c < kCols; ++c) {
        const auto i = static_cast<std::size_t>(r * kCols + c);
        EXPECT_EQ(x.at(ch0 + 4, r, c), squash(raw[i]));
        const float expected_delta = t == 0 ? 0.0F : squash_signed(raw[i] - raw_prev[i]);
        EXPECT_EQ(x.at(ch0 + 5, r, c), expected_delta);
      }
    }
    raw_prev = raw;

    // Channel 6: the squashed per-source injection-rate plane.
    // Channel 7: the signed squashed trend of the RAW source-rate plane
    // (exactly zero at the first position).
    sources_rate_into(s, MeshShape::square(kMeshSide), src_raw.data(), hw);
    for (std::int32_t r = 0; r < kRows; ++r) {
      for (std::int32_t c = 0; c < kCols; ++c) {
        const auto i = static_cast<std::size_t>(r * kCols + c);
        EXPECT_EQ(x.at(ch0 + 6, r, c), squash(src_raw[i]));
        const float expected_trend = t == 0 ? 0.0F : squash_signed(src_raw[i] - src_raw_prev[i]);
        EXPECT_EQ(x.at(ch0 + 7, r, c), expected_trend);
      }
    }
    src_raw_prev = src_raw;
  }
}

TEST_F(SequenceFeatures, SameWindowYieldsIdenticalPlanesAtAnySequencePosition) {
  const TemporalDetector detector(config());
  std::vector<monitor::FrameSample> windows = {make_sample(0.1F), make_sample(0.7F),
                                               make_sample(0.4F), make_sample(0.7F)};
  const auto view = view_of(windows);
  const nn::Tensor3 x = staged_sequence(detector, {view.data(), view.size()});

  // Positions 1 and 3 hold the same window: every pure per-window channel
  // (all but the cross-window deltas, channels 5 and 7) must be bitwise
  // equal.
  const auto hw = static_cast<std::size_t>(kRows * kCols);
  for (const std::int32_t ch : {0, 1, 2, 3, 4, 6}) {
    const float* a = x.data().data() + static_cast<std::size_t>(1 * kChannelsPerWindow + ch) * hw;
    const float* b = x.data().data() + static_cast<std::size_t>(3 * kChannelsPerWindow + ch) * hw;
    EXPECT_EQ(std::memcmp(a, b, hw * sizeof(float)), 0) << "channel " << ch;
  }
}

TEST_F(SequenceFeatures, WarmupPaddingZeroesTheDeltaChannelEverywhere) {
  const TemporalDetector detector(config());
  monitor::WindowHistory h(4);
  h.push(make_sample(0.5F));

  // One live window repeated four times: every delta/trend plane is
  // exactly 0, and every other plane equals position 0's.
  const nn::Tensor3 x = staged_sequence(detector, h.view());
  const auto hw = static_cast<std::size_t>(kRows * kCols);
  for (std::int32_t t = 0; t < 4; ++t) {
    for (std::int32_t r = 0; r < kRows; ++r) {
      for (std::int32_t c = 0; c < kCols; ++c) {
        EXPECT_EQ(x.at(t * kChannelsPerWindow + 5, r, c), 0.0F);
        EXPECT_EQ(x.at(t * kChannelsPerWindow + 7, r, c), 0.0F);
      }
    }
    for (const std::int32_t ch : {0, 1, 2, 3, 4, 6}) {
      const float* a = x.data().data() + static_cast<std::size_t>(ch) * hw;
      const float* b =
          x.data().data() + static_cast<std::size_t>(t * kChannelsPerWindow + ch) * hw;
      EXPECT_EQ(std::memcmp(a, b, hw * sizeof(float)), 0) << "t " << t << " channel " << ch;
    }
  }
}

}  // namespace
}  // namespace dl2f::temporal
