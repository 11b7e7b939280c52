#pragma once
// The benchmark's workloads. Each one is a FaultTolerantTrainer
// configuration plus an optional fault plan, both derived from the
// workload seed alone, so the program only ever sees generated inputs.
// perfbench/README.md says why each workload is in the benchmark.

#include "src/comm/fault_injector.hpp"
#include "src/core/ft_trainer.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Workload {
  std::string name;
  /// Timed steps every run makes, however short --seconds is. The quality
  /// metrics (tail_loss, eval_accuracy, sim_comm_ms_per_step,
  /// wire_bytes_per_step) are read at exactly this step, so they are a
  /// function of the seed alone. At least 100, so that ten samples lie
  /// beyond step_ms_p90.
  std::size_t quality_steps = 100;
  /// Steps per timing window: whole refresh periods. samples_per_s and
  /// step_ms_p50 are medians over the run's windows, and a traced run
  /// attaches its registry to every other window.
  std::size_t window_steps = 16;
  /// Steps of the serial (engine_threads = 0) replay that must match the
  /// pool run bit for bit, counting the warm-up step.
  std::size_t prefix_steps = 5;
  /// In-memory checkpoint() cadence during the timed steps (0 = none).
  std::size_t checkpoint_every = 0;
};

/// Everything one run trains with.
struct WorkloadInputs {
  compso::core::FtTrainerConfig config;
  compso::comm::FaultPlan plan;  ///< empty for the clean workloads.
  std::uint64_t fault_seed = 0;
};

const std::vector<Workload>& workloads();
/// nullptr when `name` is not a workload.
const Workload* find_workload(std::string_view name);

/// The trainer config and fault plan of `w` for `seed`. The same seed
/// always gives the same inputs; `engine_threads` only changes wall time
/// (the determinism contract of FaultTolerantTrainer).
WorkloadInputs make_inputs(const Workload& w, std::uint64_t seed,
                           std::size_t engine_threads);

/// CPUs this process may run on (what `nproc` prints).
std::size_t host_cpus();

/// Engine pool size of the benchmark: nproc - 1 workers, so the driving
/// thread has the last core to itself (0 on a one-core host).
std::size_t default_engine_threads();

}  // namespace perfbench
