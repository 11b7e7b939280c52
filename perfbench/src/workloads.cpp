#include "perfbench/src/workloads.hpp"

#include "src/tensor/rng.hpp"

#include <sched.h>

namespace perfbench {
namespace {

using compso::comm::FaultPlan;
using compso::core::CompressorFamily;
using compso::core::FtTrainerConfig;
using compso::core::OptimizerKind;

/// Fault cycle length of kfac_faulted: every window of this many steps
/// carries the full set of faults, so any timed window of the run sees
/// the recovery paths at the same rate.
constexpr std::size_t kFaultPeriod = 100;
/// Iterations the plan covers: more than any run reaches (60 s at the
/// fastest workload's rate on a fast host).
constexpr std::size_t kFaultHorizon = 6000;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

FtTrainerConfig common_config(std::uint64_t seed, std::size_t engine_threads) {
  FtTrainerConfig cfg;
  cfg.base.seed = splitmix64(seed);
  cfg.base.batch_per_rank = 64;
  cfg.base.classes = 32;
  cfg.total_iterations = 200;
  cfg.engine_threads = engine_threads;
  return cfg;
}

/// One fault cycle per kFaultPeriod steps, at seeded offsets: three
/// whole-payload faults, a chunk drop, a straggler inside the 5 ms deadline,
/// and a crash -> evict -> recover -> rejoin cycle. Iteration 0 (the
/// warm-up step) stays clean.
FaultPlan faulted_plan(std::uint64_t seed, std::size_t world) {
  compso::tensor::Rng rng(splitmix64(seed ^ 0xFA17ULL));
  const auto at = [&](std::size_t base) {
    return base + 5 + rng.uniform_index(kFaultPeriod - 10);
  };
  const auto rank = [&] { return rng.uniform_index(world); };
  FaultPlan plan;
  for (std::size_t base = 1; base + kFaultPeriod <= kFaultHorizon;
       base += kFaultPeriod) {
    plan.corrupt(at(base), rank());
    plan.drop(at(base), rank());
    plan.truncate(at(base), rank());
    plan.drop_chunk(at(base), rank(), 0);
    plan.straggler(at(base), rank(), 0.002);
    // Rank 0 never crashes; eviction takes ~4 steps of missed heartbeats,
    // so recovery 20-29 steps later always finds the rank evicted.
    const std::size_t crash_at = base + 5 + rng.uniform_index(40);
    const std::size_t victim = 1 + rng.uniform_index(world - 1);
    plan.crash(crash_at, victim);
    plan.recover(crash_at + 20 + rng.uniform_index(10), victim);
  }
  return plan;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {.name = "kfac_refresh", .quality_steps = 100, .prefix_steps = 5},
      {.name = "sgd_compress", .quality_steps = 100, .prefix_steps = 4},
      {.name = "kfac_faulted",
       .quality_steps = 200,
       .window_steps = 40,
       .prefix_steps = 12,
       .checkpoint_every = 25},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

WorkloadInputs make_inputs(const Workload& w, std::uint64_t seed,
                           std::size_t engine_threads) {
  WorkloadInputs in;
  auto& cfg = in.config;
  cfg = common_config(seed, engine_threads);
  if (w.name == "kfac_refresh") {
    cfg.base.world = 4;
    cfg.base.features = 128;
    cfg.base.hidden = 160;
    cfg.base.depth = 2;
    cfg.base.noise = 3.5F;
    cfg.optimizer = OptimizerKind::kKfac;
    // Every step refreshes, so every step is eigh-bound. A step without
    // eigh is ~12 ms of fine-grained pool work whose time doubles while
    // the host's other tenants take CPU; it is measured on kfac_faulted.
    cfg.kfac.eigen_refresh_every = 1;
    cfg.kfac.aggregation = 2;
    cfg.family = CompressorFamily::kCompso;
    cfg.base_lr = 0.005;
  } else if (w.name == "sgd_compress") {
    cfg.base.world = 4;
    cfg.base.features = 64;
    cfg.base.hidden = 512;
    cfg.base.depth = 3;
    cfg.base.noise = 2.5F;
    cfg.optimizer = OptimizerKind::kSgd;
    cfg.family = CompressorFamily::kEfCompso;
    cfg.base_lr = 0.01;
  } else if (w.name == "kfac_faulted") {
    cfg.base.world = 8;
    cfg.base.features = 128;
    cfg.base.hidden = 128;
    cfg.base.depth = 2;
    cfg.base.noise = 3.5F;
    cfg.optimizer = OptimizerKind::kKfac;
    // Refresh steps are 1/8 of the steps, so step_ms_p90 falls among them
    // rather than on the edge between refresh and plain steps.
    cfg.kfac.eigen_refresh_every = 8;
    cfg.kfac.layout = compso::optim::PrecondLayout::kSharded;
    cfg.kfac.assignment = compso::optim::ShardAssignment::kCostBalanced;
    cfg.kfac.chunk_bytes = 4096;
    cfg.recovery.enabled = true;
    // A deadline near the step's modelled comm time, so the barrier waits
    // for the crashed rank do not drown the collectives in
    // sim_comm_ms_per_step.
    cfg.membership.straggler_deadline_s = 0.005;
    cfg.family = CompressorFamily::kCompso;
    cfg.base_lr = 0.005;
    in.plan = faulted_plan(seed, cfg.base.world);
    in.fault_seed = splitmix64(seed ^ 0x5EEDULL);
  }
  return in;
}

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::size_t default_engine_threads() {
  const std::size_t n = host_cpus();
  return n > 1 ? n - 1 : 0;
}

}  // namespace perfbench
