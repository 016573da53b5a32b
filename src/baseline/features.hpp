// Feature extraction shared by all baseline classifiers: each sample's
// four directional frames, staged by core::stack_frames (the CNN
// detector's own staging, BOC jointly normalized) into one row.
#pragma once

#include "baseline/classifier.hpp"
#include "core/feature.hpp"
#include "monitor/dataset.hpp"

namespace dl2f::baseline {

[[nodiscard]] LabeledData to_labeled_data(const monitor::Dataset& data, core::Feature feature);

}  // namespace dl2f::baseline
