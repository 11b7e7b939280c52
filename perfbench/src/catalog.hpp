#pragma once
// Names and units of every metric the benchmark reports. BENCHMARK.json at
// the repository root lists the same names and units; the benchmark's
// tests keep the two in sync, and a run refuses to print a result that
// misses any of them.

#include <array>
#include <string_view>

namespace perfbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  /// Per-step wall time that is reported as a share of core.step_mean_ms.
  bool time_share = false;
};

/// Printed by an untraced run (--trace 0).
inline constexpr std::array<MetricSpec, 10> kEndToEnd = {{
    {"samples_per_s", "1/s"},
    {"step_ms_p50", "ms"},
    {"step_ms_p90", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_comm_ms_per_step", "ms"},
    {"wire_bytes_per_step", "bytes"},
    {"eval_accuracy", "ratio"},
    {"tail_loss", "nats"},
    {"step_success_ratio", "ratio"},
}};

/// Printed by a traced run (--trace 1).
inline constexpr std::array<MetricSpec, 29> kPerLayer = {{
    {"core.step_ms", "ms"},
    {"core.step_mean_ms", "ms"},
    {"core.checkpoint_ms", "ms", true},
    {"core.checkpoint_bytes", "bytes"},
    {"nn.forward_ms", "ms", true},
    {"nn.backward_ms", "ms", true},
    {"tensor.eigh_ms", "ms"},
    {"tensor.eigh_per_step", "count"},
    {"tensor.eigh_step_ms", "ms", true},
    {"optim.step_ms", "ms", true},
    {"optim.factor_update_ms", "ms", true},
    {"optim.refresh_eigen_ms", "ms", true},
    {"optim.precondition_ms", "ms", true},
    {"optim.overlapped_comm", "count"},
    {"optim.idle_comm", "count"},
    {"compress.compress_ms", "ms", true},
    {"compress.decompress_ms", "ms", true},
    {"compress.engine_tasks_per_step", "count"},
    {"compress.ratio", "ratio"},
    {"codec.chunk_rounds_per_step", "count"},
    {"codec.decode_failures", "count"},
    {"comm.calls_per_step", "count"},
    {"comm.allreduce_bytes_per_step", "bytes"},
    {"comm.allgather_bytes_per_step", "bytes"},
    {"comm.sim_allreduce_ms_per_step", "ms"},
    {"comm.sim_allgather_ms_per_step", "ms"},
    {"comm.retry_ratio", "ratio"},
    {"comm.recovery_actions_per_step", "count"},
    {"obs.overhead_ratio", "ratio"},
}};

}  // namespace perfbench
