// One model input staged as a Tensor3, so a test can hold the batched
// scoring paths to the per-sample nn::Sequential::forward oracle. Staging
// goes through the library's own staging rules (core::stack_frames and
// TemporalDetector::preprocess_into); only the Tensor3 wrapper is local.
#pragma once

#include <algorithm>

#include "core/detector.hpp"
#include "temporal/detector.hpp"

namespace dl2f {

/// The detector's input for `sample`: its feature's four directional
/// frames, stacked by core::stack_frames.
inline nn::Tensor3 staged_window(const core::DoSDetector& detector,
                                 const monitor::FrameSample& sample) {
  nn::Tensor3 input = detector.input_shape();
  core::stack_frames(sample, detector.config().feature, input.data());
  return input;
}

/// The temporal head's input for `seq` (sequence_length windows, oldest
/// first), staged by TemporalDetector::preprocess_into.
inline nn::Tensor3 staged_sequence(const temporal::TemporalDetector& head,
                                   monitor::SequenceView seq) {
  nn::Tensor3 input = head.input_shape();
  nn::Tensor4 batch(1, input.channels(), input.height(), input.width());
  head.preprocess_into(seq, batch, 0);
  std::copy(batch.data().begin(), batch.data().end(), input.data().begin());
  return input;
}

}  // namespace dl2f
