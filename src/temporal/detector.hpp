// Temporal DoS detection head: classify a SEQUENCE of monitoring windows.
//
// Architecture (mirrors the single-window DoSDetector's conv->pool->dense
// shape, then adds a conv-over-time stage):
//
//   Conv2D(8ch -> 8, 3x3, Valid, steps = T)              one filter bank
//   ReLU                                                 for every window
//   MaxPool2D(2x2)                                       (spatial only)
//   Flatten          -> T contiguous per-window embeddings, time-major
//   Dense(D -> 16, steps = T, window = kTemporalKernel)  conv over time
//   ReLU
//   Dense((T - kTemporalKernel + 1) * 16, 1)
//   Sigmoid
//
// The spatial stage repeats the DoSDetector's constants (3x3, 8 filters,
// 2x2 pool); the conv over time is kTemporalKernel = 2 windows wide with
// 16 filters. None of them is configuration: only the mesh, the sequence
// length T, the verdict threshold and the suspect heuristic vary.
//
// Input is (T * 8, rows, cols-1): each window contributes 8 channels —
//   0..3  raw directional VCO frames (same planes the DoSDetector sees),
//   4     squashed aggregate BOC pressure rate,
//   5     signed squashed pressure-rate DELTA vs the previous window in the
//         sequence (zero at the first position — and across any warmup
//         padding, since padded windows repeat the oldest live window),
//   6     squashed per-source injection-demand plane (cross-source view),
//   7     signed squashed per-source rate-trend: the windowed slope of the
//         RAW (pre-squash) source-rate plane vs the previous window. A
//         stealth ramp is engineered to sit under every per-window
//         threshold, but its ramp slope is a *constant positive* value
//         here, window after window — exactly the persistence the
//         conv-over-time stage integrates. Zero at the first position and
//         across warmup padding, like channel 5.
//
// Channels 0, 1, 2, 3, 4 and 6 are pure functions of ONE window, so a
// window's feature planes are bitwise identical whether computed inside a
// sequence or in isolation (tests/window_history_test.cpp pins this); only
// channels 5 and 7 read a neighbor. All compute flows through the shared Layer /
// Tensor4 / GEMM stack, so the batched path's bitwise parity with
// Sequential::forward and the any-thread-count training determinism carry
// over unchanged. Sequences are scored through
// core::PipelineSession::detect_sequence.
#pragma once

#include <cstdint>

#include "common/geometry.hpp"
#include "monitor/window_history.hpp"
#include "nn/model.hpp"
#include "temporal/features.hpp"

namespace dl2f::temporal {

/// Feature channels each window contributes to the sequence tensor.
inline constexpr std::int32_t kChannelsPerWindow = 8;

/// Width in windows of the conv over time, and so the shortest sequence
/// the head can classify.
inline constexpr std::int32_t kTemporalKernel = 2;

/// Upper bound on TemporalDetectorConfig::sequence_length — lets callers
/// stage sequence views through fixed stack buffers.
inline constexpr std::int32_t kMaxSequenceLength = 16;

/// Throws std::invalid_argument naming `who` unless `sequence_length` is
/// in [kTemporalKernel, kMaxSequenceLength].
void check_sequence_length(std::int32_t sequence_length, const char* who);

struct TemporalDetectorConfig {
  MeshShape mesh = MeshShape::square(8);
  /// Windows per classified sequence (T).
  std::int32_t sequence_length = 4;
  /// Sequence-verdict gate. Slightly stricter than the single-window
  /// detector's 0.5: the pipeline ORs this verdict into a path that
  /// already catches overt floods, so the head only needs to fire on
  /// sequences it is confident about — a loose gate here taxes the static
  /// families' precision for no recall gain.
  float threshold = 0.6F;
  /// Colluding-source localization assist (see features.hpp).
  SuspectConfig suspects;
};

class TemporalDetector {
 public:
  /// Throws std::invalid_argument when sequence_length is outside
  /// [kTemporalKernel, kMaxSequenceLength].
  explicit TemporalDetector(const TemporalDetectorConfig& cfg);

  [[nodiscard]] const TemporalDetectorConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] nn::Sequential& model() noexcept { return model_; }
  [[nodiscard]] const nn::Sequential& model() const noexcept { return model_; }

  /// Shape of one preprocessed sequence: (T * 8, rows, cols - 1).
  [[nodiscard]] nn::Tensor3 input_shape() const;

  /// Flattened per-window embedding width D after conv/pool (the input
  /// features of the windowed Dense).
  [[nodiscard]] std::int32_t embedding_dim() const noexcept;

  /// Throws std::invalid_argument naming `who` unless `seq` holds exactly
  /// sequence_length windows, each from this head's mesh
  /// (monitor::check_window). Throwing allocates: call it before staging,
  /// outside any NoAllocScope.
  void check_sequence(monitor::SequenceView seq, const char* who) const;

  /// Stage one sequence (exactly sequence_length windows, oldest first)
  /// into batch sample `slot`. Allocation-free.
  void preprocess_into(monitor::SequenceView seq, nn::Tensor4& batch, std::int32_t slot) const;

 private:
  TemporalDetectorConfig cfg_;
  nn::Sequential model_;
};

}  // namespace dl2f::temporal
