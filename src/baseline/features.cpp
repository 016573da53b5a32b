#include "baseline/features.hpp"

#include "core/detector.hpp"

namespace dl2f::baseline {

LabeledData to_labeled_data(const monitor::Dataset& data, core::Feature feature) {
  LabeledData out;
  out.x.reserve(data.samples.size());
  out.y.reserve(data.samples.size());
  for (const auto& s : data.samples) {
    // Sized from the sample's own frames, so the row always holds what
    // stack_frames copies into it.
    std::size_t row = 0;
    for (const auto& f : feature == core::Feature::Vco ? s.vco : s.boc) row += f.size();
    core::stack_frames(s, feature, out.x.emplace_back(row));
    out.y.push_back(s.under_attack ? 1 : 0);
  }
  return out;
}

}  // namespace dl2f::baseline
