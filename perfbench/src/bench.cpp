#include "perfbench/src/bench.hpp"

#include "perfbench/src/catalog.hpp"
#include "perfbench/src/stats.hpp"
#include "src/compress/error_feedback.hpp"
#include "src/core/adaptive_schedule.hpp"
#include "src/nn/dataset.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/obs/obs.hpp"
#include "src/optim/kfac.hpp"
#include "src/tensor/matrix_ops.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>

namespace perfbench {
namespace {

namespace core = compso::core;
namespace obs = compso::obs;
using Clock = std::chrono::steady_clock;
using Trainer = core::FaultTolerantTrainer;

/// Trainer constructions (each with its warm-up step) whose median is
/// setup_s; the last one is the trainer that is timed.
constexpr std::size_t kSetups = 5;

/// tail_loss averages the losses of this many last steps of the quality
/// window.
constexpr std::size_t kTailLossSteps = 10;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::unique_ptr<Trainer> make_trainer(const WorkloadInputs& in) {
  auto trainer = std::make_unique<Trainer>(in.config);
  if (!in.plan.empty()) trainer->set_fault_plan(in.plan, in.fault_seed);
  return trainer;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

bool all_finite(const std::vector<float>& v) {
  for (float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Benchmark-side spans: each timed call lands in the tracer (exported as
/// a chrome trace) and in a per-name list of durations.
class SpanLog {
 public:
  template <typename Fn>
  void time(const std::string& name, Fn&& fn) {
    auto span = tracer_.span(obs::kMainTrack, name, "perfbench");
    const auto t0 = Clock::now();
    fn();
    ms_[name].push_back(seconds_since(t0) * 1e3);
  }

  double total_ms(const std::string& name) {
    double sum = 0.0;
    for (double v : ms_[name]) sum += v;
    return sum;
  }
  const obs::Tracer& tracer() const noexcept { return tracer_; }

 private:
  obs::Tracer tracer_;
  std::map<std::string, std::vector<double>> ms_;
};

/// Communicator totals at one point of the run; differences of two
/// snapshots give the per-step comm metrics.
struct CommSnapshot {
  double sim_s = 0.0;
  double allreduce_s = 0.0;
  double allgather_s = 0.0;
  std::uint64_t allreduce_bytes = 0;
  std::uint64_t allgather_bytes = 0;
  std::uint64_t calls = 0;
  std::uint64_t gathers = 0;
  std::uint64_t decode_retries = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t recovery_actions = 0;

  static CommSnapshot of(const compso::comm::Communicator& comm) {
    CommSnapshot s;
    s.sim_s = comm.clocks().max_time();
    const auto& st = comm.stats();
    s.allreduce_s = st.allreduce_s;
    s.allgather_s = st.allgather_s;
    s.allreduce_bytes = st.allreduce_bytes;
    s.allgather_bytes = st.allgather_bytes;
    const auto& algo = comm.algo_stats();
    for (std::size_t a = 0; a < 3; ++a) {
      s.calls += algo.allreduce[a] + algo.allgather[a] + algo.broadcast[a] +
                 algo.reduce[a];
      s.gathers += algo.allgather[a];
    }
    const auto& rec = comm.recovery();
    s.decode_retries = rec.decode_retries;
    s.decode_failures = rec.decode_failures;
    s.recovery_actions = rec.recovery_actions();
    return s;
  }
};

/// What the timed loop observed.
struct LoopResult {
  std::vector<double> untraced_ms;  ///< step wall times, obs detached.
  std::vector<double> traced_ms;    ///< step wall times, registry attached.
  std::vector<double> work_ms;      ///< per step: step plus its checkpoint.
  std::vector<double> losses;
  std::vector<double> checkpoint_ms;
  std::size_t checkpoint_bytes = 0;
  double wall_s = 0.0;  ///< loop wall time minus the benchmark's bookkeeping.
  std::size_t failed_steps = 0;
  std::string error;    ///< what a throwing step reported.
  std::vector<float> prefix_params;  ///< after Workload::prefix_steps steps.
  compso::core::ckpt::Bytes mid_frame;     ///< first checkpoint past half-way.
  std::vector<float> mid_params;     ///< parameters when mid_frame was taken.
  // Quality window: read when exactly Workload::quality_steps timed steps
  // are done, so these are functions of the seed alone.
  double tail_loss = std::numeric_limits<double>::quiet_NaN();
  double eval_accuracy = std::numeric_limits<double>::quiet_NaN();
  double sim_comm_ms_per_step = 0.0;
  double wire_bytes_per_step = 0.0;
  CommSnapshot begin;
  CommSnapshot end;

  std::size_t steps() const noexcept {
    return untraced_ms.size() + traced_ms.size();
  }
};

/// The closed loop: FaultTolerantTrainer::step back to back until both
/// the time budget and the quality window are used up. With a registry,
/// windows alternate between obs detached and attached, so the traced and
/// untraced step times see the same phases of the run.
LoopResult timed_loop(Trainer& trainer, const Workload& w,
                      const RunOptions& opt, obs::MetricsRegistry* registry,
                      SpanLog* spans) {
  const std::size_t block = w.window_steps;
  LoopResult r;
  r.begin = CommSnapshot::of(trainer.comm());
  double bookkeeping_s = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i >= w.quality_steps && seconds_since(start) >= opt.seconds) break;
    const bool traced = registry != nullptr && (i / block) % 2 == 1;
    if (registry != nullptr && i % block == 0) {
      trainer.set_obs(traced ? obs::ObsHooks{registry, nullptr} : obs::ObsHooks{});
    }
    double loss = std::numeric_limits<double>::quiet_NaN();
    const auto step = [&] {
      try {
        loss = trainer.step();
      } catch (const std::exception& e) {
        r.error = e.what();
      }
    };
    const auto t0 = Clock::now();
    if (traced) {
      spans->time("core.step", step);
    } else {
      step();
    }
    const double ms = seconds_since(t0) * 1e3;
    if (!r.error.empty()) {
      ++r.failed_steps;  // the trainer's state is undefined after a throw.
      break;
    }
    (traced ? r.traced_ms : r.untraced_ms).push_back(ms);
    r.work_ms.push_back(ms);
    r.losses.push_back(loss);
    if (!std::isfinite(loss)) ++r.failed_steps;

    const std::size_t done = i + 1;
    if (w.checkpoint_every != 0 && done % w.checkpoint_every == 0) {
      compso::core::ckpt::Bytes frame;
      const auto c0 = Clock::now();
      if (traced) {
        spans->time("core.checkpoint", [&] { frame = trainer.checkpoint(); });
      } else {
        frame = trainer.checkpoint();
      }
      r.checkpoint_ms.push_back(seconds_since(c0) * 1e3);
      r.work_ms.back() += r.checkpoint_ms.back();
      r.checkpoint_bytes = frame.size();
      if (r.mid_frame.empty() && done >= w.quality_steps / 2) {
        const auto b0 = Clock::now();
        r.mid_frame = std::move(frame);
        r.mid_params = trainer.parameters();
        bookkeeping_s += seconds_since(b0);
      }
    }
    const auto b0 = Clock::now();
    if (done + 1 == w.prefix_steps) r.prefix_params = trainer.parameters();
    if (done == w.quality_steps) {
      const auto now = CommSnapshot::of(trainer.comm());
      const auto n = static_cast<double>(done);
      double tail = 0.0;
      for (std::size_t k = done - kTailLossSteps; k < done; ++k) tail += r.losses[k];
      r.tail_loss = tail / static_cast<double>(kTailLossSteps);
      r.sim_comm_ms_per_step = (now.sim_s - r.begin.sim_s) * 1e3 / n;
      r.wire_bytes_per_step =
          static_cast<double>((now.allreduce_bytes + now.allgather_bytes) -
                              (r.begin.allreduce_bytes + r.begin.allgather_bytes)) /
          n;
      if (spans != nullptr) {
        spans->time("core.evaluate", [&] { r.eval_accuracy = trainer.evaluate(); });
      } else {
        r.eval_accuracy = trainer.evaluate();
      }
    }
    bookkeeping_s += seconds_since(b0);
  }
  r.wall_s = seconds_since(start) - bookkeeping_s;
  r.end = CommSnapshot::of(trainer.comm());
  if (registry != nullptr) trainer.set_obs({});
  return r;
}

/// Constructs the trainer `setups` times (each with its warm-up step,
/// which runs the first eigen refresh); returns the last one.
std::unique_ptr<Trainer> set_up(const WorkloadInputs& in, std::size_t setups,
                                std::vector<double>& setup_s) {
  std::unique_ptr<Trainer> trainer;
  for (std::size_t k = 0; k < setups; ++k) {
    trainer.reset();  // one trainer (and engine pool) alive at a time.
    const auto t0 = Clock::now();
    trainer = make_trainer(in);
    trainer->step();
    setup_s.push_back(seconds_since(t0));
  }
  return trainer;
}

/// Replays the first prefix_steps steps with engine_threads = 0 and
/// compares the parameters with the pool run: the determinism contract,
/// and the single-worker baseline of the same task.
Check serial_prefix_check(const Workload& w, const RunOptions& opt,
                          const std::vector<float>& pool_params,
                          RunResult& result) {
  Check c{.name = "serial_prefix_bitwise", .detail = {}};
  try {
    const auto in = make_inputs(w, opt.seed, 0);
    auto trainer = make_trainer(in);
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < w.prefix_steps; ++k) trainer->step();
    const double secs = seconds_since(t0);
    result.info["serial_baseline_samples_per_s"] =
        static_cast<double>(in.config.base.world * in.config.base.batch_per_rank *
                            w.prefix_steps) /
        secs;
    c.ok = !pool_params.empty() && bitwise_equal(trainer->parameters(), pool_params);
    c.detail = c.ok ? "serial replay of " + std::to_string(w.prefix_steps) +
                          " steps matches the pool run bit for bit"
                    : "serial replay diverged from the pool run";
  } catch (const std::exception& e) {
    c.detail = std::string("serial replay threw: ") + e.what();
  }
  return c;
}

/// Restores the mid-run checkpoint into a fresh trainer and compares
/// parameters bit for bit.
Check checkpoint_check(const WorkloadInputs& in, const LoopResult& loop) {
  Check c{.name = "checkpoint_restore_bitwise", .detail = {}};
  if (loop.mid_frame.empty()) {
    c.detail = "no checkpoint was taken";
    return c;
  }
  try {
    auto fresh = make_trainer(in);
    fresh->restore(loop.mid_frame);
    c.ok = bitwise_equal(fresh->parameters(), loop.mid_params);
    c.detail = c.ok ? "restore() of a mid-run checkpoint gives identical parameters"
                    : "restored parameters differ from the checkpointed run";
  } catch (const std::exception& e) {
    c.detail = std::string("restore threw: ") + e.what();
  }
  return c;
}

Check finite_check(Trainer& trainer, const LoopResult& loop) {
  Check c{.name = "finite_loss_and_parameters", .detail = {}};
  if (!loop.error.empty()) {
    c.detail = "a step threw: " + loop.error;
    return c;
  }
  const bool loss_ok = !loop.losses.empty() && std::isfinite(loop.losses.back());
  c.ok = loss_ok && all_finite(trainer.parameters());
  c.detail = c.ok ? "final loss and parameters are finite"
                  : "non-finite final loss or parameters";
  return c;
}

/// Per-step layer times from a replay of the workload at its exact shapes
/// (same model, world, batch, compressor family and math pool size),
/// timed from the benchmark through each module's public calls.
struct ReplayTimes {
  std::size_t layers = 0;  ///< trainable layers of the model.
  std::size_t timed_iterations = 0;
  std::size_t refresh_rounds = 0;
  double largest_eigh_ms = 0.0;  ///< median at the largest factor size.
  double eigh_round_ms = 0.0;    ///< all factors of one refresh, median.
};

ReplayTimes layer_replay(const WorkloadInputs& in, std::size_t threads,
                         SpanLog& spans) {
  namespace nn = compso::nn;
  namespace optim = compso::optim;
  namespace compress = compso::compress;
  namespace tensor = compso::tensor;
  const auto& cfg = in.config;
  const auto& b = cfg.base;
  const bool kfac = cfg.optimizer == core::OptimizerKind::kKfac;

  compress::CompressionEngine engine(threads);
  tensor::MathPoolGuard pool_guard(engine.pool());
  nn::ClusterDataset data(b.features, b.classes, b.noise, b.seed);
  std::vector<nn::Model> replicas;
  for (std::size_t r = 0; r < b.world; ++r) {
    tensor::Rng init(b.seed);
    replicas.push_back(nn::make_mlp_classifier(b.features, b.hidden, b.classes,
                                               b.depth, init));
  }
  std::vector<nn::Model*> ptrs;
  for (auto& m : replicas) ptrs.push_back(&m);
  compso::comm::Communicator comm(compso::comm::Topology::with_gpus(b.world),
                                  compso::comm::NetworkModel::platform1());
  optim::StepLr lr(cfg.base_lr, cfg.lr_decay, cfg.lr_milestones);
  core::AdaptiveSchedule schedule(lr, cfg.total_iterations, cfg.schedule);
  tensor::Rng data_rng(b.seed ^ 0xDA7AULL);
  tensor::Rng sr_rng(b.seed ^ 0x5121ULL);
  tensor::Rng comp_rng(b.seed ^ 0xC0DEULL);

  std::unique_ptr<optim::DistKfac> dist_kfac;
  std::unique_ptr<optim::DistSgd> dist_sgd;
  std::unique_ptr<compress::ErrorFeedbackCompressor> ef;
  auto sgd_cfg = cfg.sgd;
  if (cfg.family == core::CompressorFamily::kEfCompso) {
    ef = std::make_unique<compress::ErrorFeedbackCompressor>(
        compress::make_compso(schedule.params_at(0)));
    sgd_cfg.error_feedback = false;  // as the trainer does for EF families.
  } else if (cfg.family != core::CompressorFamily::kCompso) {
    throw std::logic_error("layer replay: unsupported compressor family");
  }
  if (kfac) {
    dist_kfac = std::make_unique<optim::DistKfac>(cfg.kfac, comm, ptrs);
    dist_kfac->set_engine(&engine);
  } else {
    dist_sgd = std::make_unique<optim::DistSgd>(sgd_cfg, comm, ptrs);
    dist_sgd->set_engine(&engine);
  }

  const auto trainable = replicas[0].trainable_layers();
  std::vector<std::unique_ptr<optim::KfacLayerState>> states;
  for (std::size_t li : trainable) {
    const auto& w = *replicas[0].layer(li).weight();
    states.push_back(std::make_unique<optim::KfacLayerState>(w.cols() + 1, w.rows()));
  }
  // Factor f is A (f even) or G (f odd) of slot f / 2.
  const auto factor = [&](std::size_t f) -> const tensor::Tensor& {
    return f % 2 == 0 ? states[f / 2]->factor_a() : states[f / 2]->factor_g();
  };
  std::size_t largest = 0;
  for (std::size_t f = 1; f < 2 * states.size(); ++f) {
    if (factor(f).rows() > factor(largest).rows()) largest = f;
  }
  const std::size_t every = cfg.kfac.eigen_refresh_every;
  // Iteration 0 is an untimed warm-up (first eigen refresh, first-touch
  // allocations), as in the timed run; the timed iterations then cover
  // at least eight steps and two refresh rounds.
  const std::size_t iterations = 1 + (kfac ? std::max<std::size_t>(2 * every, 8) : 8);
  std::vector<std::vector<double>> eigh_ms(2 * trainable.size());
  std::vector<double> round_ms;
  SpanLog warmup;
  for (std::size_t t = 0; t < iterations; ++t) {
    SpanLog& log = t == 0 ? warmup : spans;
    for (std::size_t r = 0; r < b.world; ++r) {
      const auto batch = data.sample(b.batch_per_rank, data_rng);
      tensor::Tensor logits;
      tensor::Tensor grad;
      log.time("nn.forward", [&] { logits = replicas[r].forward(batch.x); });
      nn::softmax_cross_entropy(logits, batch.labels, grad);
      log.time("nn.backward", [&] { replicas[r].backward(grad); });
    }
    const auto params = schedule.params_at(t);
    std::unique_ptr<compress::GradientCompressor> compso;
    const compress::GradientCompressor* active = nullptr;
    if (ef != nullptr) {
      ef->set_inner(compress::make_compso(params));
      active = ef.get();
    } else {
      compso = compress::make_compso(params);
      active = compso.get();
    }
    compress::Bytes payload;
    std::vector<float> decoded;
    const auto round_trip = [&](std::uint64_t stream, std::span<const float> v) {
      log.time("compress.compress",
               [&] { active->compress_stream_into(stream, v, comp_rng, payload); });
      log.time("compress.decompress", [&] { active->decompress_into(payload, decoded); });
    };
    if (kfac) {
      const bool refresh = t % every == 0;
      double round = 0.0;
      std::vector<tensor::Tensor> preconditioned(trainable.size());
      for (std::size_t s = 0; s < trainable.size(); ++s) {
        for (std::size_t r = 0; r < b.world; ++r) {
          auto& layer = replicas[r].layer(trainable[s]);
          log.time("optim.factor_update", [&] {
            states[s]->update_factors(*layer.kfac_input(), *layer.kfac_grad_output(),
                                      cfg.kfac.stat_decay);
          });
        }
        if (refresh) {
          for (std::size_t f = 2 * s; f < 2 * s + 2; ++f) {
            const auto t0 = Clock::now();
            log.time("tensor.eigh", [&] { (void)tensor::eigh(factor(f)); });
            const double ms = seconds_since(t0) * 1e3;
            if (t > 0) eigh_ms[f].push_back(ms);
            round += ms;
          }
          log.time("optim.refresh_eigen", [&] { states[s]->refresh_eigen(); });
        }
        const auto grad = optim::combined_gradient(replicas[0].layer(trainable[s]));
        log.time("optim.precondition", [&] {
          preconditioned[s] = states[s]->precondition(grad, cfg.kfac.damping);
        });
      }
      if (refresh && t > 0) round_ms.push_back(round);
      // The gather compresses every slot's preconditioned gradient once,
      // `aggregation` slots per payload.
      const std::size_t m = std::max<std::size_t>(cfg.kfac.aggregation, 1);
      for (std::size_t first = 0; first < trainable.size(); first += m) {
        std::vector<float> concat;
        for (std::size_t s = first; s < std::min(first + m, trainable.size()); ++s) {
          const auto v = preconditioned[s].span();
          concat.insert(concat.end(), v.begin(), v.end());
        }
        round_trip(first, concat);
      }
      log.time("optim.step", [&] { dist_kfac->step(t, lr.lr(t), active, sr_rng); });
    } else {
      // DistSgd compresses every (slot, rank) gradient and decodes each
      // payload once.
      for (std::size_t s = 0; s < trainable.size(); ++s) {
        for (std::size_t r = 0; r < b.world; ++r) {
          const auto grad = optim::combined_gradient(replicas[r].layer(trainable[s]));
          round_trip(s * b.world + r, grad.span());
        }
      }
      log.time("optim.step", [&] { dist_sgd->step(lr.lr(t), active, sr_rng); });
    }
  }
  ReplayTimes times;
  times.layers = trainable.size();
  times.timed_iterations = iterations - 1;
  times.refresh_rounds = round_ms.size();
  if (kfac) {
    times.largest_eigh_ms = median(eigh_ms[largest]);
    times.eigh_round_ms = median(round_ms);
  }
  return times;
}

void end_to_end_metrics(const LoopResult& loop, const Workload& w,
                        const WorkloadInputs& in, const std::vector<double>& setup_s,
                        RunResult& out) {
  const auto& b = in.config.base;
  const auto n = static_cast<double>(loop.steps());
  const auto samples_per_step = static_cast<double>(b.world * b.batch_per_rank);
  // Throughput and p50 are medians over windows of whole refresh periods,
  // so a burst of load from outside the process that covers less than
  // half of the run does not move them.
  std::vector<double> window_rate;
  std::vector<double> window_p50;
  const auto at = [](const std::vector<double>& v, std::size_t i) {
    return v.begin() + static_cast<std::ptrdiff_t>(i);
  };
  for (std::size_t first = 0; first + w.window_steps <= loop.steps();
       first += w.window_steps) {
    const std::size_t last = first + w.window_steps;
    window_rate.push_back(samples_per_step /
                          (mean({at(loop.work_ms, first), at(loop.work_ms, last)}) * 1e-3));
    window_p50.push_back(
        median({at(loop.untraced_ms, first), at(loop.untraced_ms, last)}));
  }
  auto& m = out.metrics;
  m["samples_per_s"] = median(window_rate);
  m["step_ms_p50"] = median(window_p50);
  m["step_ms_p90"] = percentile(loop.untraced_ms, 0.9);
  m["setup_s"] = median(setup_s);
  m["peak_rss_mb"] = peak_rss_mb();
  m["sim_comm_ms_per_step"] = loop.sim_comm_ms_per_step;
  m["wire_bytes_per_step"] = loop.wire_bytes_per_step;
  m["eval_accuracy"] = loop.eval_accuracy;
  m["tail_loss"] = loop.tail_loss;
  out.info["step_samples"] = n;
  out.info["samples_beyond_p90"] =
      static_cast<double>(samples_beyond(loop.untraced_ms.size(), 0.9));
  out.info["timed_wall_s"] = loop.wall_s;
  out.info["whole_run_samples_per_s"] = samples_per_step * n / loop.wall_s;
  out.info["windows"] = static_cast<double>(window_rate.size());
  out.info["window_steps"] = static_cast<double>(w.window_steps);
  out.info["setup_samples"] = static_cast<double>(setup_s.size());
}

void per_layer_metrics(const LoopResult& loop, const obs::MetricsRegistry& registry, SpanLog& spans,
                       const ReplayTimes& replay, RunResult& out) {
  auto& m = out.metrics;
  const auto traced = static_cast<double>(loop.traced_ms.size());
  const auto steps = static_cast<double>(loop.steps());
  const auto per_traced = [&](std::string_view counter) {
    return static_cast<double>(registry.counter(counter)) / traced;
  };
  const auto per_replay = [&](const std::string& name) {
    return spans.total_ms(name) / static_cast<double>(replay.timed_iterations);
  };
  const CommSnapshot& c0 = loop.begin;
  const CommSnapshot& c1 = loop.end;

  m["core.step_ms"] = median(loop.traced_ms);
  m["core.step_mean_ms"] = mean(loop.traced_ms);
  m["core.checkpoint_ms"] = median(loop.checkpoint_ms);
  m["core.checkpoint_bytes"] = static_cast<double>(loop.checkpoint_bytes);
  m["nn.forward_ms"] = per_replay("nn.forward");
  m["nn.backward_ms"] = per_replay("nn.backward");
  // Eigen refreshes per step, as the trainer's own counter saw them.
  const double refreshes = per_traced("kfac.eigh_refreshes");
  m["tensor.eigh_ms"] = replay.largest_eigh_ms;
  m["tensor.eigh_per_step"] = refreshes * 2.0 * static_cast<double>(replay.layers);
  m["tensor.eigh_step_ms"] = replay.eigh_round_ms * refreshes;
  m["optim.step_ms"] = per_replay("optim.step");
  m["optim.factor_update_ms"] = per_replay("optim.factor_update");
  m["optim.refresh_eigen_ms"] =
      replay.refresh_rounds == 0
          ? 0.0
          : spans.total_ms("optim.refresh_eigen") /
                static_cast<double>(replay.refresh_rounds) * refreshes;
  m["optim.precondition_ms"] = per_replay("optim.precondition");
  m["optim.overlapped_comm"] = per_traced("sched.overlapped_comm");
  m["optim.idle_comm"] = per_traced("sched.idle_comm");
  m["compress.compress_ms"] = per_replay("compress.compress");
  m["compress.decompress_ms"] = per_replay("compress.decompress");
  m["compress.engine_tasks_per_step"] = per_traced("engine.tasks");
  const auto orig = registry.counter("kfac.gather.orig_bytes") + registry.counter("sgd.orig_bytes");
  const auto comp = registry.counter("kfac.gather.comp_bytes") + registry.counter("sgd.comp_bytes");
  m["compress.ratio"] = comp == 0 ? 0.0 : static_cast<double>(orig) / static_cast<double>(comp);
  m["codec.chunk_rounds_per_step"] = per_traced("chunk.rounds");
  m["codec.decode_failures"] = static_cast<double>(c1.decode_failures - c0.decode_failures);
  m["comm.calls_per_step"] = static_cast<double>(c1.calls - c0.calls) / steps;
  m["comm.allreduce_bytes_per_step"] =
      static_cast<double>(c1.allreduce_bytes - c0.allreduce_bytes) / steps;
  m["comm.allgather_bytes_per_step"] =
      static_cast<double>(c1.allgather_bytes - c0.allgather_bytes) / steps;
  m["comm.sim_allreduce_ms_per_step"] = (c1.allreduce_s - c0.allreduce_s) * 1e3 / steps;
  m["comm.sim_allgather_ms_per_step"] = (c1.allgather_s - c0.allgather_s) * 1e3 / steps;
  const auto gathers = c1.gathers - c0.gathers;
  m["comm.retry_ratio"] =
      gathers == 0 ? 0.0
                   : static_cast<double>(c1.decode_retries - c0.decode_retries) /
                         static_cast<double>(gathers);
  m["comm.recovery_actions_per_step"] =
      static_cast<double>(c1.recovery_actions - c0.recovery_actions) / steps;
  m["obs.overhead_ratio"] = median(loop.traced_ms) / median(loop.untraced_ms);

  for (const auto& spec : kPerLayer) {
    if (spec.time_share) {
      out.shares[std::string(spec.name)] =
          m[std::string(spec.name)] / m["core.step_mean_ms"];
    }
  }
  // Leaf layers are timed one call at a time; in the step they overlap on
  // the engine pool, so their sum may exceed the step (the excess is
  // overlap, not an error).
  double leaves = 0.0;
  for (const char* leaf :
       {"core.checkpoint_ms", "nn.forward_ms", "nn.backward_ms", "optim.factor_update_ms",
        "tensor.eigh_step_ms", "optim.precondition_ms", "compress.compress_ms",
        "compress.decompress_ms"}) {
    leaves += out.shares[leaf];
  }
  out.info["leaf_share_sum"] = leaves;
  out.info["traced_steps"] = traced;
  out.info["untraced_steps"] = static_cast<double>(loop.untraced_ms.size());
  out.info["replay_iterations"] = static_cast<double>(replay.timed_iterations);
  out.info["refresh_rounds"] = static_cast<double>(replay.refresh_rounds);
}

}  // namespace

RunResult run(const RunOptions& opt) {
  if (opt.workload == nullptr) throw std::invalid_argument("run: no workload");
  const Workload& w = *opt.workload;
  const auto in = make_inputs(w, opt.seed, opt.engine_threads);
  RunResult out;

  std::vector<double> setup_s;
  auto trainer = set_up(in, kSetups, setup_s);

  obs::MetricsRegistry registry;
  SpanLog spans;
  const LoopResult loop = timed_loop(*trainer, w, opt, opt.trace ? &registry : nullptr,
                                     opt.trace ? &spans : nullptr);

  out.checks.push_back(finite_check(*trainer, loop));
  trainer.reset();  // frees the pool before the serial replay runs.
  out.checks.push_back(serial_prefix_check(w, opt, loop.prefix_params, out));
  if (w.checkpoint_every != 0) out.checks.push_back(checkpoint_check(in, loop));

  if (opt.trace) {
    const auto replay = layer_replay(in, opt.engine_threads, spans);
    per_layer_metrics(loop, registry, spans, replay, out);
    if (!opt.trace_out.empty()) {
      std::ofstream(opt.trace_out) << spans.tracer().trace_json();
    }
  } else {
    end_to_end_metrics(loop, w, in, setup_s, out);
  }

  // A step that threw is attempted but has no step time.
  out.attempted = loop.steps() + (loop.error.empty() ? 0 : 1) + out.checks.size();
  out.failed = loop.failed_steps;
  for (const auto& c : out.checks) out.failed += c.ok ? 0 : 1;
  if (!opt.trace) {
    out.metrics["step_success_ratio"] =
        1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  }
  return out;
}

}  // namespace perfbench
