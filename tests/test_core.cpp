// Tests for the COMPSO core: adaptive schedule (Alg. 1), framework tuning,
// performance simulator invariants, and end-to-end training integration
// (cluster and span tasks on FaultTolerantTrainer).

#include "src/core/adaptive_schedule.hpp"
#include "src/core/framework.hpp"
#include "src/core/perf_sim.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/tensor/synthetic.hpp"

#include <gtest/gtest.h>

namespace cc = compso::core;
namespace cp = compso::compress;
namespace ct = compso::tensor;
namespace cm = compso::comm;

namespace {

// --- adaptive schedule (Algorithm 1) ---

TEST(AdaptiveSchedule, StepLrSwitchesAtFirstDrop) {
  compso::optim::StepLr lr(0.1, 0.1, {25});
  cc::AdaptiveSchedule sched(lr, 100);
  const auto early = sched.at(10);
  EXPECT_TRUE(early.use_filter);
  EXPECT_DOUBLE_EQ(early.filter_bound, 4e-3);
  EXPECT_DOUBLE_EQ(early.quant_bound, 4e-3);
  const auto late = sched.at(25);
  EXPECT_FALSE(late.use_filter);          // SR-only conservative mode
  EXPECT_DOUBLE_EQ(late.quant_bound, 2e-3);  // tighter bound
}

TEST(AdaptiveSchedule, SmoothLrDecaysPerStage) {
  compso::optim::SmoothLr lr(0.1, 10, 1000);
  cc::AdaptiveScheduleParams p;
  p.stages = 4;
  p.decay = 0.5;
  cc::AdaptiveSchedule sched(lr, 1000, p);
  EXPECT_EQ(sched.stage_length(), 250U);
  EXPECT_TRUE(sched.at(0).use_filter);       // stage 0 aggressive
  EXPECT_FALSE(sched.at(300).use_filter);    // later stages conservative
  EXPECT_NEAR(sched.at(300).quant_bound, 2e-3, 1e-12);  // 4e-3 * 0.5
  EXPECT_NEAR(sched.at(999).quant_bound, 5e-4, 1e-12);  // 4e-3 * 0.5^3
  EXPECT_EQ(sched.at(999).stage_index, 3U);
}

TEST(AdaptiveSchedule, BoundsDecreaseMonotonically) {
  compso::optim::SmoothLr lr(0.1, 10, 800);
  cc::AdaptiveSchedule sched(lr, 800);
  for (std::size_t t = 1; t < 800; ++t) {
    EXPECT_LE(sched.at(t).quant_bound, sched.at(t - 1).quant_bound);
  }
}

TEST(AdaptiveSchedule, ParamsFlowIntoCompressor) {
  compso::optim::StepLr lr(0.1, 0.1, {25});
  cc::AdaptiveSchedule sched(lr, 100);
  const auto p0 = sched.params_at(0);
  EXPECT_TRUE(p0.use_filter);
  const auto p50 = sched.params_at(50);
  EXPECT_FALSE(p50.use_filter);
  EXPECT_LT(p50.quant_bound, p0.quant_bound);
}

TEST(AdaptiveSchedule, AggressiveCompressesMoreThanConservative) {
  compso::optim::StepLr lr(0.1, 0.1, {25});
  cc::AdaptiveSchedule sched(lr, 100);
  ct::Rng rng(7);
  const auto grad =
      ct::synthetic_gradient(1 << 16, ct::GradientProfile::kfac(), rng);
  const auto aggressive = cp::make_compso(sched.params_at(0));
  const auto conservative = cp::make_compso(sched.params_at(50));
  EXPECT_GT(aggressive->compression_ratio(grad, rng),
            conservative->compression_ratio(grad, rng));
}

TEST(AdaptiveSchedule, ZeroIterationsThrows) {
  compso::optim::StepLr lr(0.1, 0.1, {25});
  EXPECT_THROW(cc::AdaptiveSchedule(lr, 0), std::invalid_argument);
}

// --- framework ---

TEST(Framework, TuneSelectsEncoderAndAggregation) {
  cm::Communicator comm(cm::Topology::with_gpus(16),
                        cm::NetworkModel::platform1());
  compso::optim::StepLr lr(0.1, 0.1, {25});
  cc::CompsoFramework fw({}, lr, 100, comm);
  ct::Rng rng(8);
  const auto grad =
      ct::synthetic_gradient(1 << 16, ct::GradientProfile::kfac(), rng);
  std::vector<std::size_t> layer_bytes(32, 1 << 18);
  fw.tune(layer_bytes, grad, 0.4, rng);
  EXPECT_GE(fw.aggregation(), 1U);
  EXPECT_EQ(fw.encoder_scores().size(), 8U);
  EXPECT_GT(fw.estimated_end_to_end(), 1.0);
}

TEST(Framework, CompressorCachedPerStage) {
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  compso::optim::StepLr lr(0.1, 0.1, {25});
  cc::CompsoFramework fw({}, lr, 100, comm);
  const auto* c0 = fw.compressor_for(0);
  const auto* c1 = fw.compressor_for(10);
  EXPECT_EQ(c0, c1);  // same stage -> same instance
  const auto* c2 = fw.compressor_for(50);
  EXPECT_NE(c0, c2);  // stage changed at the LR drop
}

TEST(Framework, FixedModeUsesConfiguredAggregation) {
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  compso::optim::StepLr lr(0.1, 0.1, {25});
  cc::FrameworkConfig cfg;
  cfg.use_perf_model = false;
  cfg.fixed_aggregation = 4;
  cc::CompsoFramework fw(cfg, lr, 100, comm);
  ct::Rng rng(9);
  const auto grad =
      ct::synthetic_gradient(1 << 14, ct::GradientProfile::kfac(), rng);
  fw.tune({1 << 16, 1 << 16}, grad, 0.4, rng);
  EXPECT_EQ(fw.aggregation(), 4U);
}

// --- performance simulator ---

cc::PerfConfig rn50_config(std::size_t nodes) {
  cc::PerfConfig cfg;
  cfg.model = compso::nn::resnet50_shape();
  cfg.topo = cm::Topology{.nodes = nodes, .gpus_per_node = 4};
  return cfg;
}

TEST(PerfSim, BreakdownComponentsPositive) {
  cc::PerfSimulator sim(rn50_config(16));
  const auto& b = sim.baseline();
  EXPECT_GT(b.allgather_s, 0.0);
  EXPECT_GT(b.allreduce_s, 0.0);
  EXPECT_GT(b.kfac_compute_s, 0.0);
  EXPECT_GT(b.forward_backward_s, 0.0);
  EXPECT_GT(b.others_s, 0.0);
}

TEST(PerfSim, CommunicationExceedsThirtyPercent) {
  // The paper's motivating observation (§1, Fig. 1) for ResNet-50 /
  // BERT-large style workloads.
  for (auto shape :
       {compso::nn::resnet50_shape(), compso::nn::bert_large_shape()}) {
    cc::PerfConfig cfg;
    cfg.model = shape;
    cfg.topo = cm::Topology{.nodes = 16, .gpus_per_node = 4};
    cfg.batch_per_gpu = shape.name == "ResNet-50" ? 4 : 1;
    cc::PerfSimulator sim(cfg);
    EXPECT_GT(sim.baseline().comm_fraction(), 0.30) << shape.name;
  }
}

TEST(PerfSim, AllgatherShareGrowsWithGpuCount) {
  const auto b16 = cc::PerfSimulator(rn50_config(16)).baseline();
  const auto b64 = cc::PerfSimulator(rn50_config(64)).baseline();
  EXPECT_GT(b64.allgather_s / b64.total_s(), b16.allgather_s / b16.total_s());
}

TEST(PerfSim, KfacComputeShareFallsWithGpuCount) {
  const auto b16 = cc::PerfSimulator(rn50_config(16)).baseline();
  const auto b64 = cc::PerfSimulator(rn50_config(64)).baseline();
  EXPECT_LT(b64.kfac_compute_s / b64.total_s(),
            b16.kfac_compute_s / b16.total_s());
}

TEST(PerfSim, CompsoBeatsBaselinesEndToEnd) {
  cc::PerfSimulator sim(rn50_config(16));
  const auto compso = cp::make_compso({});
  const auto qsgd8 = cp::make_qsgd(8);
  const auto sz = cp::make_sz(4e-3);
  const auto cocktail = cp::make_cocktail(0.2, 8);
  const auto r_compso = sim.with_compressor(*compso, 4);
  EXPECT_GT(r_compso.end_to_end_speedup, 1.3);
  EXPECT_GT(r_compso.end_to_end_speedup,
            sim.with_compressor(*cocktail, 4).end_to_end_speedup);
  EXPECT_GE(r_compso.end_to_end_speedup,
            sim.with_compressor(*sz, 4).end_to_end_speedup * 0.99);
  EXPECT_GE(r_compso.end_to_end_speedup,
            sim.with_compressor(*qsgd8, 4).end_to_end_speedup * 0.99);
}

TEST(PerfSim, AggregationImprovesCommSpeedup) {
  cc::PerfSimulator sim(rn50_config(16));
  const auto compso = cp::make_compso({});
  const auto m1 = sim.with_compressor(*compso, 1);
  const auto m4 = sim.with_compressor(*compso, 4);
  EXPECT_GT(m4.comm_speedup, m1.comm_speedup);
}

TEST(PerfSim, SlowerNetworkGainsMoreFromCompression) {
  // §5.2: the speedup is greater on Slingshot 10 than Slingshot 11.
  cc::PerfConfig c1 = rn50_config(16);
  cc::PerfConfig c2 = rn50_config(16);
  c2.net = cm::NetworkModel::platform2();
  const auto compso = cp::make_compso({});
  const auto r1 = cc::PerfSimulator(c1).with_compressor(*compso, 4);
  const auto r2 = cc::PerfSimulator(c2).with_compressor(*compso, 4);
  EXPECT_GT(r1.end_to_end_speedup, r2.end_to_end_speedup);
}

TEST(PerfSim, CompressionRatioNearPaperHeadline) {
  cc::PerfSimulator sim(rn50_config(16));
  const auto compso = cp::make_compso({});
  const auto r = sim.with_compressor(*compso, 4);
  // Paper: average CR ~19-24x across models; demand the right ballpark.
  EXPECT_GT(r.compression_ratio, 12.0);
  EXPECT_LT(r.compression_ratio, 40.0);
}

// --- training through FaultTolerantTrainer ---

/// KFAC on the default cluster task; uncompressed unless `provider` says.
cc::FtTrainerConfig kfac_config(
    std::size_t lr_drop,
    cc::CompressorProvider provider = cc::fixed_provider(nullptr)) {
  cc::FtTrainerConfig cfg;
  cfg.base_lr = 0.02;
  cfg.lr_milestones = {lr_drop};
  cfg.kfac.damping = 0.03;
  cfg.provider = std::move(provider);
  return cfg;
}

/// KFAC on the span-extraction task (12 positions, seed 99); the default
/// provider compresses every step with the adaptive COMPSO schedule.
cc::FtTrainerConfig span_config(std::size_t engine_threads = 0) {
  cc::FtTrainerConfig cfg;
  cfg.base.hidden = 32;
  cfg.base.noise = 0.55F;
  cfg.base.seed = 99;
  cfg.task = std::make_shared<cc::SpanTask>(cfg.base, 12);
  cfg.base_lr = 0.02;
  cfg.lr_milestones = {100};
  cfg.kfac.damping = 0.03;
  cfg.total_iterations = 120;
  cfg.engine_threads = engine_threads;
  return cfg;
}

TEST(TrainerIntegration, KfacConvergesOnClusters) {
  cc::FaultTolerantTrainer trainer(kfac_config(60));
  const auto r = cc::train(trainer, 60);
  EXPECT_GT(r.final_accuracy, 0.9);
  EXPECT_LT(r.final_loss, r.loss_curve.front());
}

TEST(TrainerIntegration, KfacWithCompsoMatchesNoCompression) {
  cc::FaultTolerantTrainer plain(kfac_config(40));
  const auto base = cc::train(plain, 60);
  const auto compso = cp::make_compso({});
  cc::FaultTolerantTrainer compressed(
      kfac_config(40, cc::fixed_provider(compso.get())));
  const auto comp = cc::train(compressed, 60);
  EXPECT_GT(comp.final_accuracy, base.final_accuracy - 0.05);
  EXPECT_GT(comp.avg_compression_ratio, 2.0);
}

TEST(TrainerIntegration, DeterministicAcrossRuns) {
  cc::FaultTolerantTrainer t1(kfac_config(40)), t2(kfac_config(40));
  const auto r1 = cc::train(t1, 10);
  const auto r2 = cc::train(t2, 10);
  ASSERT_EQ(r1.loss_curve.size(), r2.loss_curve.size());
  for (std::size_t i = 0; i < r1.loss_curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.loss_curve[i], r2.loss_curve[i]);
  }
}

TEST(TrainerIntegration, SpanTaskProducesMetrics) {
  auto cfg = span_config();
  cfg.provider = cc::fixed_provider(nullptr);
  const auto& task = static_cast<const cc::SpanTask&>(*cfg.task);
  cc::FaultTolerantTrainer trainer(cfg);
  trainer.run(120);
  const auto m = task.metrics(trainer.model());
  EXPECT_GT(m.f1, 50.0);  // learnable structure is learned
  EXPECT_GE(m.f1, m.exact_match);
  EXPECT_DOUBLE_EQ(trainer.evaluate(), m.exact_match / 100.0);
}

TEST(TrainerIntegration, SpanTaskResumesBitExact) {
  constexpr std::size_t kSplit = 5, kSteps = 12;
  cc::FaultTolerantTrainer straight(span_config());
  const auto straight_losses = straight.run(kSteps);

  cc::FaultTolerantTrainer first(span_config());
  first.run(kSplit);
  const auto frame = first.checkpoint();
  cc::FaultTolerantTrainer resumed(span_config());
  resumed.restore(frame);
  const auto resumed_losses = resumed.run(kSteps - kSplit);

  for (std::size_t i = 0; i < resumed_losses.size(); ++i) {
    EXPECT_EQ(resumed_losses[i], straight_losses[kSplit + i]) << "step " << i;
  }
  EXPECT_EQ(resumed.parameters(), straight.parameters());
}

TEST(TrainerIntegration, SpanTaskBitIdenticalAcrossEngineThreads) {
  cc::FaultTolerantTrainer serial(span_config(0));
  cc::FaultTolerantTrainer parallel(span_config(4));
  EXPECT_EQ(serial.run(12), parallel.run(12));
  EXPECT_EQ(serial.parameters(), parallel.parameters());
}

}  // namespace

namespace {

TEST(PerfSimOverlap, OverlapHidesCommunication) {
  auto cfg = rn50_config(16);
  cc::PerfSimulator exposed(cfg);
  cfg.comm_overlap = 0.5;
  cc::PerfSimulator overlapped(cfg);
  EXPECT_LT(overlapped.baseline().allgather_s,
            exposed.baseline().allgather_s);
  EXPECT_LT(overlapped.baseline().total_s(), exposed.baseline().total_s());
}

TEST(PerfSimOverlap, HiddenTimeBoundedByCompute) {
  auto cfg = rn50_config(16);
  cfg.comm_overlap = 1.0;
  cc::PerfSimulator sim(cfg);
  const auto& b = sim.baseline();
  cfg.comm_overlap = 0.0;
  const auto b0 = cc::PerfSimulator(cfg).baseline();
  const double hidden = b0.allgather_s - b.allgather_s;
  EXPECT_LE(hidden, b.kfac_compute_s + b.forward_backward_s + 1e-12);
  EXPECT_GE(b.allgather_s, 0.0);
}

TEST(PerfSimOverlap, CompressionGainShrinksWithOverlap) {
  const auto compso = cp::make_compso({});
  auto cfg = rn50_config(16);
  const double e0 =
      cc::PerfSimulator(cfg).with_compressor(*compso, 4).end_to_end_speedup;
  cfg.comm_overlap = 0.75;
  const double e75 =
      cc::PerfSimulator(cfg).with_compressor(*compso, 4).end_to_end_speedup;
  EXPECT_GT(e0, e75);
  EXPECT_GE(e75, 1.0);
}

}  // namespace
