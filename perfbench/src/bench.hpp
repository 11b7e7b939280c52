#pragma once
// One benchmark run: set-up, the timed closed loop of
// FaultTolerantTrainer::step calls, the correctness checks, and (traced
// runs only) the counters and the layer replay behind the per-layer
// metrics. All simulated ranks run in this process; the engine pool is
// the only source of extra threads.

#include "perfbench/src/workloads.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  /// Minimum timed wall seconds; the run also makes at least
  /// Workload::quality_steps timed steps.
  double seconds = 10.0;
  /// false: end-to-end metrics. true: per-layer metrics.
  bool trace = false;
  std::size_t engine_threads = 0;
  /// Where a traced run writes its benchmark-side spans as a chrome trace
  /// ("" = not written).
  std::string trace_out;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct RunResult {
  /// Every metric of the run's catalog (kEndToEnd or kPerLayer).
  std::map<std::string, double> metrics;
  /// Share of core.step_mean_ms for the per-step layer times.
  std::map<std::string, double> shares;
  /// Sample counts and other context that is not a metric.
  std::map<std::string, double> info;
  std::vector<Check> checks;
  /// Timed steps plus correctness checks; each failed step or failed
  /// check counts once in `failed`.
  std::size_t attempted = 0;
  std::size_t failed = 0;

  bool correct() const noexcept { return failed == 0 && attempted > 0; }
};

RunResult run(const RunOptions& options);

}  // namespace perfbench
