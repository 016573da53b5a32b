// Sliding window-sequence assembly for the temporal detection head.
//
// The single-window pipeline classifies each monitoring window in
// isolation; the temporal head classifies a fixed-length *sequence* of
// consecutive windows. WindowHistory is the ring buffer that turns the
// DefenseRuntime's live window stream into such sequences: push one
// FrameSample per window, read back a chronological SequenceView of the
// last `sequence_length` windows.
//
// Warmup semantics are deterministic by construction: until
// `sequence_length` windows have been pushed, the OLDEST live window is
// repeated at the front of the view. Repetition (rather than zero-frames)
// keeps every per-window feature plane a pure function of a real sampled
// window, and makes the cross-window delta channel exactly zero across the
// padded prefix — the sequence looks like "steady state at the first
// observation", which is the correct null hypothesis before history
// exists.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "monitor/dataset.hpp"

namespace dl2f::monitor {

/// Chronological view of a window sequence, oldest first. Pointers stay
/// valid until the owning container is mutated (WindowHistory::push, or
/// vector reallocation for materialized sequences).
using SequenceView = std::span<const FrameSample* const>;

class WindowHistory {
 public:
  explicit WindowHistory(std::int32_t sequence_length)
      : cap_(sequence_length) {
    assert(sequence_length >= 1);
    ring_.reserve(static_cast<std::size_t>(cap_));
    view_.resize(static_cast<std::size_t>(cap_), nullptr);
  }

  /// Live windows currently held (min(windows pushed, sequence_length));
  /// view() pads until it is full.
  [[nodiscard]] std::int32_t live() const noexcept {
    return static_cast<std::int32_t>(std::min<std::int64_t>(pushed_, cap_));
  }

  /// Append the newest monitoring window, evicting the oldest once the
  /// ring is full. Invalidates previously returned views.
  void push(FrameSample sample) {
    const auto slot = static_cast<std::size_t>(pushed_ % cap_);
    if (ring_.size() <= slot) {
      ring_.push_back(std::move(sample));
    } else {
      ring_[slot] = std::move(sample);
    }
    ++pushed_;
  }

  /// The chronological sequence ending at the newest window — always
  /// exactly sequence_length entries, warmup-padded at the front by
  /// repeating the oldest live window. Requires at least one push.
  [[nodiscard]] SequenceView view() const {
    assert(pushed_ > 0);
    const std::int64_t oldest = pushed_ - live();
    for (std::int32_t j = 0; j < cap_; ++j) {
      std::int64_t p = pushed_ - cap_ + j;
      if (p < oldest) p = oldest;
      view_[static_cast<std::size_t>(j)] = &ring_[static_cast<std::size_t>(p % cap_)];
    }
    return {view_.data(), view_.size()};
  }

  /// The newest pushed window. Requires at least one push.
  [[nodiscard]] const FrameSample& latest() const {
    assert(pushed_ > 0);
    return ring_[static_cast<std::size_t>((pushed_ - 1) % cap_)];
  }

 private:
  std::int32_t cap_;
  std::int64_t pushed_ = 0;
  std::vector<FrameSample> ring_;
  /// Scratch for view(); sized once, so view() never allocates.
  mutable std::vector<const FrameSample*> view_;
};

}  // namespace dl2f::monitor
