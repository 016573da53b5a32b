#include "monitor/sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "traffic/fdos.hpp"
#include "traffic/simulation.hpp"

namespace dl2f::monitor {
namespace {

TEST(Sampler, IdleMeshProducesAllZeroFrames) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  traffic::Simulation sim(cfg);
  noc::Mesh& mesh = sim.mesh();
  sim.run(100);
  const FeatureSampler sampler(cfg.shape);
  const auto vco = sampler.sample_vco(mesh);
  auto boc = sampler.sample_boc(mesh);
  for (Direction d : kMeshDirections) {
    EXPECT_FLOAT_EQ(frame_of(vco, d).sum(), 0.0F);
    EXPECT_FLOAT_EQ(frame_of(boc, d).sum(), 0.0F);
  }
}

TEST(Sampler, BocShowsExactlyTheFloodedRoute) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  noc::Mesh mesh(cfg);

  traffic::AttackScenario s;
  s.attackers = {0};
  s.victim = 18;  // (2,2): route 0 -> 1 -> 2 -> 10 -> 18
  s.fir = 1.0;
  traffic::FloodingAttack attack(s, 3);
  for (int c = 0; c < 300; ++c) {
    attack.tick(mesh);
    mesh.step();
  }

  const FeatureSampler sampler(cfg.shape);
  const auto boc = sampler.sample_boc(mesh, /*reset=*/false);
  const auto truth_ports = s.ground_truth_ports(cfg.shape);
  const FrameGeometry& geom = sampler.geometry();

  // Every on-route port has heavy traffic; every off-route port has none.
  for (Direction d : kMeshDirections) {
    const Frame& f = frame_of(boc, d);
    for (std::int32_t r = 0; r < f.rows(); ++r) {
      for (std::int32_t c = 0; c < f.cols(); ++c) {
        const Coord coord = geom.to_coord(d, FramePos{r, c});
        const NodeId node = cfg.shape.id_of(coord);
        const bool on_route =
            std::find(truth_ports.begin(), truth_ports.end(),
                      std::make_pair(node, d)) != truth_ports.end();
        if (on_route) {
          EXPECT_GT(f.at(r, c), 100.0F) << to_string(d) << " node " << node;
        } else {
          EXPECT_FLOAT_EQ(f.at(r, c), 0.0F) << to_string(d) << " node " << node;
        }
      }
    }
  }
}

TEST(Sampler, BocResetStartsNewWindow) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(4);
  traffic::Simulation sim(cfg);
  noc::Mesh& mesh = sim.mesh();
  mesh.inject(0, 3);
  sim.run(50);
  const FeatureSampler sampler(cfg.shape);
  const auto first = sampler.sample_boc(mesh, /*reset=*/true);
  float total = 0;
  for (Direction d : kMeshDirections) total += frame_of(first, d).sum();
  EXPECT_GT(total, 0.0F);

  const auto second = sampler.sample_boc(mesh, /*reset=*/true);
  for (Direction d : kMeshDirections) EXPECT_FLOAT_EQ(frame_of(second, d).sum(), 0.0F);
}

TEST(Sampler, VcoReflectsCongestionUnderFlood) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  noc::Mesh mesh(cfg);
  traffic::AttackScenario s;
  s.attackers = {0, 7};
  s.victim = 59;
  s.fir = 1.0;
  traffic::FloodingAttack attack(s, 3);
  for (int c = 0; c < 500; ++c) {
    attack.tick(mesh);
    mesh.step();
  }
  const FeatureSampler sampler(cfg.shape);
  const auto vco = sampler.sample_vco(mesh);
  float total = 0;
  for (Direction d : kMeshDirections) total += frame_of(vco, d).sum();
  EXPECT_GT(total, 0.5F);  // sustained flooding keeps VCs occupied
}

TEST(Sampler, VcoIsIndependentOfBocSamplingOrder) {
  // Regression for the BOC/VCO sampling-order hazard: sample_boc(reset)
  // used to reset the occupancy-averaging windows too, so sampling BOC
  // before VCO collapsed the VCO average to its instantaneous fallback.
  // Drive two identical meshes deterministically and sample the two
  // features in opposite orders: both feature frames must match exactly,
  // in the first window and in later windows.
  const auto drive = [](traffic::Simulation& sim, int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < 6; ++i) {
        sim.mesh().inject(0, 15);
        sim.mesh().inject(3, 12);
      }
      sim.run(40);
    }
  };
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(4);
  traffic::Simulation vco_first(cfg);
  traffic::Simulation boc_first(cfg);
  const FeatureSampler sampler(cfg.shape);

  const auto expect_same_frames = [](const DirectionalFrames& a, const DirectionalFrames& b) {
    for (Direction d : kMeshDirections) {
      const Frame& fa = frame_of(a, d);
      const Frame& fb = frame_of(b, d);
      for (std::int32_t r = 0; r < fa.rows(); ++r) {
        for (std::int32_t c = 0; c < fa.cols(); ++c) {
          ASSERT_EQ(fa.at(r, c), fb.at(r, c)) << to_string(d) << " @(" << r << "," << c << ")";
        }
      }
    }
  };

  for (int window = 0; window < 3; ++window) {
    drive(vco_first, 3);
    drive(boc_first, 3);
    const auto vco_a = sampler.sample_vco(vco_first.mesh(), /*reset=*/true);
    const auto boc_a = sampler.sample_boc(vco_first.mesh(), /*reset=*/true);
    const auto boc_b = sampler.sample_boc(boc_first.mesh(), /*reset=*/true);
    const auto vco_b = sampler.sample_vco(boc_first.mesh(), /*reset=*/true);
    expect_same_frames(vco_a, vco_b);
    expect_same_frames(boc_a, boc_b);
    // The windows are genuinely informative, not degenerate zeros.
    float vco_total = 0.0F;
    for (Direction d : kMeshDirections) vco_total += frame_of(vco_a, d).sum();
    EXPECT_GT(vco_total, 0.0F) << "window " << window;
  }
}

TEST(Sampler, VcoValuesWithinUnitInterval) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  traffic::Simulation sim(cfg);
  sim.add_generator(std::make_unique<traffic::SyntheticTraffic>(
      traffic::SyntheticPattern::UniformRandom, 0.05, 5));
  sim.run(500);
  const FeatureSampler sampler(cfg.shape);
  const auto vco = sampler.sample_vco(sim.mesh());
  for (Direction d : kMeshDirections) {
    const auto& values = frame_of(vco, d).data();
    EXPECT_GE(*std::min_element(values.begin(), values.end()), 0.0F);
    EXPECT_LE(frame_of(vco, d).max_value(), 1.0F);
  }
}

}  // namespace
}  // namespace dl2f::monitor
