// Table 4: comparison with related works.
//
// The perceptron of Sniffer [2], the SVM of [13] and an XGBoost-style
// boosted-stump classifier [8] are trained on exactly the same flattened
// VCO frames as the CNN detector; DL2Fence's localization columns come
// from the CNN segmenter + MFF/TLM pipeline (baselines don't localize
// routes — matching the N/A cells of the paper's table). Hardware
// overhead for the distributed baselines is their published per-router
// figure (constant in NoC size); ours comes from the analytic area model.
//
// Expected shape (paper): CNN detection precision beats the baselines;
// overhead 1.9% @ 8x8 and 0.45% @ 16x16 vs 3.3% (Sniffer) and 9% (SVM).
#include <iostream>
#include <memory>

#include "baseline/classifier.hpp"
#include "baseline/features.hpp"
#include "bench/harness.hpp"
#include "common/table.hpp"
#include "hw/area_model.hpp"

int main() {
  using namespace dl2f;
  const auto preset = bench::scale_preset();
  const MeshShape mesh = MeshShape::square(16);

  // One pooled dataset over all six STP benchmarks (16x16, paper scale).
  monitor::DatasetConfig data_cfg;
  data_cfg.mesh = mesh;
  data_cfg.scenarios_per_benchmark = std::max(preset.scenarios_per_benchmark / 2, 4);
  data_cfg.benign_samples_per_run = preset.benign_samples;
  data_cfg.attack_samples_per_run = preset.attack_samples;
  data_cfg.seed = 0x7A;
  std::cout << "Table 4: comparison to related works (training shared 16x16 STP dataset...)\n\n";
  const auto data = monitor::generate_dataset(data_cfg, monitor::stp_benchmarks());
  const auto split = monitor::split_dataset(data, preset.test_fraction, 0x7B);

  // DL2Fence: CNN detector (VCO) + CNN segmenter (BOC) + MFF/TLM.
  core::PipelineEngine engine(core::Dl2FenceConfig::paper_default(mesh));
  core::train_detector(engine.mutable_detector(), split.train,
                       {.epochs = preset.detector_epochs, .seed = 42});
  core::train_localizer(engine.mutable_localizer(), split.train,
                        {.epochs = preset.localizer_epochs, .seed = 43});
  const core::BenchmarkScore cnn = core::score_benchmark(engine, "STP", split.test);

  // Baselines on identical flattened VCO features.
  const auto train_flat = baseline::to_labeled_data(split.train, core::Feature::Vco);
  const auto test_flat = baseline::to_labeled_data(split.test, core::Feature::Vco);
  std::vector<std::unique_ptr<baseline::BinaryClassifier>> baselines;
  baselines.push_back(std::make_unique<baseline::Perceptron>());
  baselines.push_back(std::make_unique<baseline::LinearSvm>());
  baselines.push_back(std::make_unique<baseline::BoostedStumps>());

  TextTable table({"Model", "HW Overhead", "D:Accuracy", "D:Precision", "L:Accuracy",
                   "L:Precision"});
  const double ours8 = hw::overhead_percent(MeshShape::square(8));
  const double ours16 = hw::overhead_percent(MeshShape::square(16));
  const char* overheads[] = {"3.3%/router [2]", "9%/router [13]", "N/A [8]"};
  int i = 0;
  for (auto& clf : baselines) {
    clf->fit(train_flat);
    const auto cm = baseline::evaluate_classifier(*clf, test_flat);
    table.add_row({clf->name(), overheads[i++], TextTable::cell(cm.accuracy(), 3),
                   TextTable::cell(cm.precision(), 3), "N/A", "N/A"});
  }
  table.add_row({"CNN Classifier+Segmentor (ours)",
                 TextTable::cell(ours8, 2) + "%@8x8 / " + TextTable::cell(ours16, 2) + "%@16x16",
                 TextTable::cell(cnn.detection.accuracy, 3),
                 TextTable::cell(cnn.detection.precision, 3),
                 TextTable::cell(cnn.localization.accuracy, 3),
                 TextTable::cell(cnn.localization.precision, 3)});
  std::cout << table << "\n";
  std::cout << "Paper reference: [2] D-acc 97.6% @8x8; [13] D-acc 95.5% @4x4; [8] D-acc ~96% "
               "@4x4; ours D-acc 95.8% / D-prec 98.5% / L-acc 91.7% / L-prec 99.3% @16x16.\n"
            << "Note: baselines are *global* re-implementations scored on a 16x16 mesh — "
               "harder than their published 4x4/8x8 settings; the comparison isolates model "
               "class on identical data.\n";
  return 0;
}
