// Ablation bench (beyond the paper's tables; measures four design choices
// the paper makes or leaves configurable):
//
//   1. VCE on/off — how much route completion buys (§3.3 calls VCE
//      "configurable ... best when initial detection is accurate").
//   2. Binarization threshold sweep on the segmentation output.
//   3. Kernel count (the paper: "altering the number of filters ...
//      marginal accuracy gains, hardware overhead outweighed benefits").
//   4. Multi-frame fusion vs best-single-frame localization.
#include <iostream>
#include <sstream>

#include "bench/harness.hpp"
#include "common/table.hpp"
#include "core/fusion.hpp"
#include "core/pipeline.hpp"
#include "hw/area_model.hpp"

int main() {
  using namespace dl2f;
  const MeshShape mesh = MeshShape::square(16);
  const auto preset = bench::scale_preset();

  monitor::DatasetConfig data_cfg;
  data_cfg.mesh = mesh;
  data_cfg.scenarios_per_benchmark = preset.scenarios_per_benchmark;
  data_cfg.benign_samples_per_run = 2;
  data_cfg.attack_samples_per_run = 3;
  data_cfg.seed = 0xAB1;
  std::cout << "Ablation study (16x16, uniform-random STP background)\n\n";
  const auto data = monitor::generate_dataset(
      data_cfg, {monitor::Benchmark{traffic::SyntheticPattern::UniformRandom}});
  const auto split = monitor::split_dataset(data, 0.3, 0xAB2);

  const auto score_localization = [&](const core::PipelineEngine& engine) {
    core::PipelineSession session(engine);
    core::LocalizationScore s;
    for (const auto& sample : split.test.samples) {
      if (!sample.under_attack) continue;
      s.add(session.localize(sample).victims, sample.victim_truth);
    }
    return s.metrics();
  };

  // --- 1. VCE on/off + 2. binarization threshold -------------------------
  {
    core::Dl2FenceConfig cfg = core::Dl2FenceConfig::paper_default(mesh);
    core::PipelineEngine engine(cfg);
    core::train_localizer(engine.mutable_localizer(), split.train,
                          {.epochs = preset.localizer_epochs, .seed = 43});

    TextTable t({"VCE", "Bin.Threshold", "L:Accuracy", "L:Precision", "L:Recall"});
    std::stringstream weights;
    engine.localizer().model().save(weights);
    for (const bool vce : {true, false}) {
      for (const float thr : {0.3F, 0.5F, 0.7F}) {
        core::Dl2FenceConfig vcfg = cfg;
        vcfg.enable_vce = vce;
        vcfg.localizer.threshold = thr;
        core::PipelineEngine variant(vcfg);
        weights.clear();
        weights.seekg(0);
        if (!variant.mutable_localizer().model().load(weights)) return 1;
        const auto m = score_localization(variant);
        t.add_row({vce ? "on" : "off", TextTable::cell(thr, 1), TextTable::cell(m.accuracy, 3),
                   TextTable::cell(m.precision, 3), TextTable::cell(m.recall, 3)});
      }
    }
    std::cout << "1+2. Victim Complementing Enhancement & binarization threshold:\n" << t << '\n';
  }

  // --- 3. Kernel count vs accuracy vs estimated area ---------------------
  {
    TextTable t({"Filters", "L:Accuracy", "L:Recall", "Model Params", "Accel Area (GE)"});
    for (const std::int32_t filters : {4, 8, 16}) {
      core::Dl2FenceConfig cfg = core::Dl2FenceConfig::paper_default(mesh);
      cfg.localizer.filters = filters;
      core::PipelineEngine engine(cfg);
      core::train_localizer(engine.mutable_localizer(), split.train,
                            {.epochs = preset.localizer_epochs, .seed = 43});
      const auto m = score_localization(engine);
      const auto weights = static_cast<std::int32_t>(engine.localizer().model().param_count() +
                                                     engine.detector().model().param_count());
      t.add_row({std::to_string(filters), TextTable::cell(m.accuracy, 3),
                 TextTable::cell(m.recall, 3),
                 std::to_string(engine.localizer().model().param_count()),
                 TextTable::cell(hw::accelerator_area_ge(weights), 0)});
    }
    std::cout << "3. Localizer kernel count (paper: gains beyond 8 kernels don't pay for "
                 "their silicon):\n"
              << t << '\n';
  }

  // --- 4. Multi-frame fusion vs single best frame ------------------------
  {
    core::Dl2FenceConfig cfg = core::Dl2FenceConfig::paper_default(mesh);
    cfg.enable_vce = false;  // isolate the fusion contribution
    core::PipelineEngine engine(cfg);
    core::train_localizer(engine.mutable_localizer(), split.train,
                          {.epochs = preset.localizer_epochs, .seed = 43});

    core::PipelineSession session(engine);
    core::LocalizationScore fused, single;
    const monitor::FrameGeometry geom(mesh);
    for (const auto& sample : split.test.samples) {
      if (!sample.under_attack) continue;
      const core::RoundResult r = session.localize(sample);
      const monitor::DirectionalFrames& seg = r.segmentation;
      fused.add(r.fusion.victims, sample.victim_truth);
      // Single-frame: keep only the direction with the most positives.
      Direction best = Direction::East;
      float best_sum = -1.0F;
      for (Direction d : kMeshDirections) {
        const float s = monitor::frame_of(seg, d).sum();
        if (s > best_sum) {
          best_sum = s;
          best = d;
        }
      }
      monitor::DirectionalFrames only;
      for (Direction d : kMeshDirections) {
        only[static_cast<std::size_t>(d)] =
            d == best ? monitor::frame_of(seg, d) : geom.make_frame();
      }
      single.add(core::multi_frame_fusion(geom, only).victims, sample.victim_truth);
    }
    TextTable t({"Strategy", "L:Accuracy", "L:Recall"});
    const auto mf = fused.metrics();
    const auto sf = single.metrics();
    t.add_row({"Multi-frame fusion", TextTable::cell(mf.accuracy, 3),
               TextTable::cell(mf.recall, 3)});
    t.add_row({"Best single frame", TextTable::cell(sf.accuracy, 3),
               TextTable::cell(sf.recall, 3)});
    std::cout << "4. Multi-frame fusion vs single-frame localization (turned routes need "
                 "both X- and Y-phase frames):\n"
              << t << '\n';
  }
  return 0;
}
