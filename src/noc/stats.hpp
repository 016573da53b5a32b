// Latency accounting for the four series Figure 1 reports:
// packet/flit queueing latency (time spent in the source queue) and
// packet/flit total latency (creation to ejection).
#pragma once

#include <cstdint>
#include <vector>

#include "noc/flit.hpp"

namespace dl2f::noc {

/// q-th percentile (q in [0,1], clamped) of a latency histogram whose
/// bucket index is the latency in cycles. Uses the nearest-rank method
/// (1-based rank = ceil(q * total)), so p100 is the maximum bucketed
/// value — the previous floor-based rank under-reported upper percentiles
/// on small counts.
///
/// The final bucket is open-ended overflow: samples >= hist.size()-1
/// saturate into it, so its index is only a lower bound on the real
/// latency. When the requested percentile lands there, `overflow` is
/// returned instead of the clamp: pass the true observed maximum when you
/// track one (LatencyStats::window_max_packet_latency does), or accept the
/// default sentinel -1.0, which loudly signals "beyond histogram range"
/// rather than silently reporting the clamp as if it were a measured
/// latency.
/// Returns 0 on an empty histogram.
[[nodiscard]] double histogram_percentile(const std::vector<std::int64_t>& hist, double q,
                                          double overflow = -1.0) noexcept;

/// Simple accumulating mean.
class RunningMean {
 public:
  void add(double v) noexcept {
    sum_ += v;
    ++count_;
  }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] std::int64_t count() const noexcept { return count_; }
  void reset() noexcept { sum_ = 0.0; count_ = 0; }

 private:
  double sum_ = 0.0;
  std::int64_t count_ = 0;
};

class LatencyStats {
 public:
  /// Record one ejected flit (every flit contributes to the flit series).
  void on_flit_ejected(const Flit& flit, Cycle now);
  /// Record packet completion (called on the tail flit).
  void on_packet_ejected(const Flit& tail, Cycle now);

  [[nodiscard]] double avg_flit_queue_latency() const noexcept { return flit_queue_.mean(); }
  [[nodiscard]] double avg_flit_latency() const noexcept { return flit_total_.mean(); }
  [[nodiscard]] double avg_packet_queue_latency() const noexcept { return packet_queue_.mean(); }
  [[nodiscard]] double avg_packet_latency() const noexcept { return packet_total_.mean(); }
  /// Exact accumulated packet latency (for windowed deltas).
  [[nodiscard]] double packet_latency_sum() const noexcept { return packet_total_.sum(); }

  [[nodiscard]] std::int64_t flits_ejected() const noexcept { return flit_total_.count(); }
  [[nodiscard]] std::int64_t packets_ejected() const noexcept { return packet_total_.count(); }

  /// One bucket per cycle of packet total latency, overflow in the last
  /// bucket — lets the defense runtime report p50/p99 tails, not just
  /// means, and diff window snapshots for per-window percentiles.
  static constexpr std::size_t kLatencyBuckets = 2048;
  [[nodiscard]] const std::vector<std::int64_t>& packet_latency_histogram() const noexcept {
    return packet_hist_;
  }
  /// Largest packet latency since the last reset_window_max() or reset()
  /// (cycles) — the exact value even when it saturated the histogram's
  /// overflow bucket, and so the overflow substitute for *windowed*
  /// (delta-histogram) percentiles.
  [[nodiscard]] Cycle window_max_packet_latency() const noexcept {
    return window_max_packet_latency_;
  }
  void reset_window_max() noexcept { window_max_packet_latency_ = 0; }

  void reset() noexcept;

 private:
  RunningMean flit_queue_;
  RunningMean flit_total_;
  RunningMean packet_queue_;
  RunningMean packet_total_;
  Cycle window_max_packet_latency_ = 0;
  std::vector<std::int64_t> packet_hist_ = std::vector<std::int64_t>(kLatencyBuckets, 0);
};

}  // namespace dl2f::noc
