// Unified handle over the evaluation benchmarks: the paper's nine
// (6 STP + 3 PARSEC) plus the three request/reply families from
// src/workload/ ("trace-replay", "openloop-burst", "memhog"; the "trace
// workloads" below), each drawing its requests from a generated arrival
// process, with the per-benchmark defaults used across tables, benches
// and tests.
#pragma once

#include <memory>
#include <string>
#include <variant>

#include "traffic/generator.hpp"
#include "traffic/parsec.hpp"
#include "traffic/patterns.hpp"
#include "workload/families.hpp"

namespace dl2f::monitor {

struct Benchmark {
  std::variant<traffic::SyntheticPattern, traffic::ParsecWorkload, workload::TraceWorkloadKind>
      kind;

  [[nodiscard]] bool is_parsec() const noexcept {
    return std::holds_alternative<traffic::ParsecWorkload>(kind);
  }
  [[nodiscard]] std::string name() const;

  /// Benign per-node packet-injection rate for STP benchmarks. Rates sit
  /// below each pattern's saturation point so benign runs stay stable and
  /// flooding pressure remains the distinguishing signal; adversarial
  /// patterns (tornado, bit complement) saturate earlier and get lower
  /// rates. Unused for PARSEC (the phase machine owns its rates) and for
  /// trace workloads (their RequestSource owns the arrival process).
  [[nodiscard]] double stp_injection_rate() const noexcept;

  /// Feature sampling period in cycles (paper: 1 000 for STP, 100 000 for
  /// PARSEC at 2 GHz; our PARSEC period is scaled to keep bench runtimes
  /// laptop-friendly while still spanning several phase-machine periods).
  /// Trace workloads use the STP period: their bursts are shorter than
  /// PARSEC phases.
  [[nodiscard]] std::int64_t sample_period() const noexcept;

  /// Instantiate the benign traffic generator for this benchmark.
  [[nodiscard]] std::unique_ptr<traffic::TrafficGenerator> make_generator(
      const MeshShape& shape, std::uint64_t seed) const;
};

/// The paper's full benchmark list, STP first, then PARSEC. Trace
/// workloads are NOT included (the paper's tables are 9 columns wide);
/// callers that sweep the widened axis append trace_benchmarks().
[[nodiscard]] std::vector<Benchmark> all_benchmarks();
[[nodiscard]] std::vector<Benchmark> stp_benchmarks();
[[nodiscard]] std::vector<Benchmark> parsec_benchmarks();
/// The request/reply families from src/workload/.
[[nodiscard]] std::vector<Benchmark> trace_benchmarks();

}  // namespace dl2f::monitor
