#include "noc/stats.hpp"

#include <algorithm>
#include <cmath>

namespace dl2f::noc {

double histogram_percentile(const std::vector<std::int64_t>& hist, double q,
                            double overflow) noexcept {
  std::int64_t total = 0;
  for (const std::int64_t c : hist) total += c;
  if (total == 0) return 0.0;
  // Nearest-rank: the q-th percentile is the value of the ceil(q*total)-th
  // smallest sample (1-based), clamped into [1, total].
  const double clamped_q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::clamp(
      static_cast<std::int64_t>(std::ceil(clamped_q * static_cast<double>(total))),
      std::int64_t{1}, total);
  std::int64_t seen = 0;
  for (std::size_t b = 0; b + 1 < hist.size(); ++b) {
    seen += hist[b];
    if (seen >= rank) return static_cast<double>(b);
  }
  // The rank falls in the final, open-ended overflow bucket: its index is
  // only a lower bound on the real latency, so report the caller-provided
  // true maximum (or the -1 "beyond range" sentinel), never the clamp.
  return overflow;
}

void LatencyStats::on_flit_ejected(const Flit& flit, Cycle now) {
  flit_queue_.add(static_cast<double>(flit.injected - flit.created));
  flit_total_.add(static_cast<double>(now - flit.created));
}

void LatencyStats::on_packet_ejected(const Flit& tail, Cycle now) {
  packet_queue_.add(static_cast<double>(tail.injected - tail.created));
  packet_total_.add(static_cast<double>(now - tail.created));
  const auto lat = static_cast<std::size_t>(std::max<Cycle>(now - tail.created, 0));
  window_max_packet_latency_ = std::max(window_max_packet_latency_, static_cast<Cycle>(lat));
  ++packet_hist_[std::min(lat, kLatencyBuckets - 1)];
}

void LatencyStats::reset() noexcept {
  flit_queue_.reset();
  flit_total_.reset();
  packet_queue_.reset();
  packet_total_.reset();
  window_max_packet_latency_ = 0;
  std::fill(packet_hist_.begin(), packet_hist_.end(), 0);
}

}  // namespace dl2f::noc
