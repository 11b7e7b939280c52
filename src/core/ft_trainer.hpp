#pragma once
// Fault-tolerant training runtime (DESIGN.md §9): the one training loop of
// the project. A persistent trainer owns the task (dataset + model, see
// core/task.hpp), replicas, Communicator, optimizer, and RNG streams for
// the whole run, picks each iteration's compressor through a
// CompressorProvider, and so can
//
//  - drive a seeded FaultPlan through the Communicator (transport faults)
//    and through the training loop itself (kNanGradient poisoning),
//  - apply the recovery policies end to end: bounded decode retries,
//    uncompressed fallback, rank eviction with gradient renormalization,
//    non-finite step skips followed by an adaptive-schedule bound
//    tightening (use_filter off, eb_q halved) for the rest of the run,
//  - checkpoint and resume bit-exactly (model params, optimizer state
//    including KFAC factors + eigendecompositions, LR/schedule cursor,
//    RNG streams, rank liveness; see core/checkpoint.hpp).
//
// Every fault observed and every recovery action taken lands in the
// Communicator's RecoveryStats, next to CommStats.

#include "src/comm/communicator.hpp"
#include "src/compress/compression_engine.hpp"
#include "src/core/adaptive_schedule.hpp"
#include "src/core/checkpoint.hpp"
#include "src/core/task.hpp"
#include "src/optim/dist_kfac.hpp"
#include "src/optim/dist_sgd.hpp"
#include "src/optim/recovery.hpp"

#include <memory>
#include <string>
#include <vector>

namespace compso::core {

enum class OptimizerKind : std::uint8_t { kSgd = 0, kKfac = 1 };

/// Which compressor family drives the gradient exchange (DESIGN.md §17).
/// kCompso is the legacy default: a fresh COMPSO configured by the
/// iteration-wise adaptive schedule. The other families carry cross-step
/// state (error-feedback residuals, sketch seed counters), so the trainer
/// owns one persistent compressor for the whole run and checkpoints its
/// state as the "compressor" CKPT section.
enum class CompressorFamily : std::uint8_t {
  kCompso = 0,
  kEfCompso = 1,            ///< error feedback wrapped around COMPSO.
  kTopK = 2,
  kEfTopK = 3,              ///< error feedback wrapped around top-k.
  kCountSketch = 4,
  kRandomProjection = 5,
};

struct FtTrainerConfig {
  TrainerConfig base{};  ///< cluster / model / seed.
  /// What is trained; null trains the ClusterTask built from `base`.
  std::shared_ptr<const TrainingTask> task{};
  OptimizerKind optimizer = OptimizerKind::kKfac;
  optim::DistKfacConfig kfac{};
  optim::DistSgdConfig sgd{};
  optim::RecoveryPolicy recovery{};  ///< default: disabled (fail fast).
  /// Heartbeat / straggler-ladder knobs for the membership layer
  /// (suspicion timeout, probe backoff, straggler deadline; DESIGN.md §14).
  comm::MembershipConfig membership{};
  /// StepLR owned by the trainer, so a resumed run rebuilds the identical
  /// schedule from config alone.
  double base_lr = 0.05;
  double lr_decay = 0.1;
  std::vector<std::size_t> lr_milestones{};
  /// Picks each iteration's compressor; a provider that returns nullptr
  /// runs that iteration uncompressed. Empty = the family's own provider:
  /// kCompso configures a COMPSO per iteration from the iteration-wise
  /// adaptive schedule (tightened after a non-finite event), the other
  /// families hand out their persistent compressor. EF-over-COMPSO still
  /// follows the adaptive schedule: the wrapper's inner compressor is
  /// rebuilt from effective_params(t) each iteration while the residuals
  /// persist.
  CompressorProvider provider{};
  /// Compressor family for the gradient exchange. Its persistent
  /// compressor and checkpoint section exist even under a caller's
  /// provider.
  CompressorFamily family = CompressorFamily::kCompso;
  double family_keep_fraction = 0.1;  ///< top-k keep for the TopK families.
  double family_sketch_ratio = 0.25;  ///< size ratio for sketch families.
  std::size_t total_iterations = 100;  ///< sizes the adaptive schedule.
  AdaptiveScheduleParams schedule{};
  /// Worker threads for the parallel compression engine. 0 = serial
  /// (compress inline on the training thread). Any value produces
  /// bit-identical training trajectories and checkpoints — parallelism
  /// only changes wall-clock time.
  std::size_t engine_threads = 0;
};

class FaultTolerantTrainer {
 public:
  explicit FaultTolerantTrainer(FtTrainerConfig config);
  /// Detaches the shared math pool if this trainer attached it (the pool
  /// dies with the trainer's engine; a stale global pointer would dangle).
  ~FaultTolerantTrainer();

  /// Installs a fault plan (seeded injector wired with the payload-fuzz
  /// mutator from the compress layer). Call before the affected iterations.
  void set_fault_plan(comm::FaultPlan plan, std::uint64_t seed);

  /// Runs one training iteration over the surviving ranks; returns their
  /// mean loss. Consumes the iteration's scheduled faults.
  double step();
  /// Runs `iterations` steps; returns the per-iteration loss curve.
  std::vector<double> run(std::size_t iterations);

  /// Held-out accuracy (TrainingTask::evaluate) of the first surviving
  /// replica.
  double evaluate();
  /// The first surviving replica.
  nn::Model& model() { return replicas_[comm_.first_participant()]; }
  /// Flattened parameters of the first surviving replica (for drift /
  /// bit-exactness checks in tests).
  std::vector<float> parameters();
  /// Flattened parameters of a specific replica — lets tests prove a
  /// rejoined rank's weights are bit-identical to a survivor's.
  std::vector<float> replica_parameters(std::size_t rank);

  std::size_t iteration() const noexcept { return iteration_; }
  bool bounds_tightened() const noexcept { return tightened_; }
  comm::Communicator& comm() noexcept { return comm_; }
  const comm::Communicator& comm() const noexcept { return comm_; }
  const AdaptiveSchedule& schedule() const noexcept { return schedule_; }
  compress::CompressionEngine& engine() noexcept { return engine_; }
  /// The KFAC optimizer (null for SGD), e.g. to attach a factor
  /// compressor or read its per-step factor bytes.
  optim::DistKfac* kfac() noexcept { return kfac_.get(); }
  /// Original / wire bytes of the last step's gradient exchange (0 when
  /// nothing went on the wire).
  double last_compression_ratio() const;

  /// The compressor parameters iteration `t` would train with, including
  /// the post-NaN tightening override — what a resumed run must reproduce
  /// bit-exactly (see tests/test_stage_resume.cpp).
  compress::CompsoParams effective_params(std::size_t t) const;

  /// The run-persistent family compressor (null for kCompso, whose
  /// compressor is rebuilt per step). Tests reach EF residuals / sketch
  /// counters through it via the StatefulCompressor interface.
  compress::GradientCompressor* family_compressor() noexcept {
    return family_compressor_.get();
  }

  /// Attaches observability to the whole runtime: the Communicator (per
  /// collective spans + byte counters), the CompressionEngine (per-task
  /// spans), its ThreadPool, and the trainer itself (per-step spans,
  /// checkpoint/tightening events). Pass {} to detach. For byte-identical
  /// exports across engine thread counts, drive the attached tracer with
  /// comm::sim_time_clock(comm().clocks()).
  void set_obs(obs::ObsHooks hooks);

  /// One named body section of a checkpoint frame: [begin, end) byte
  /// offsets into the frame's *body* (after the 17-byte header). The fuzz
  /// harness uses the map to aim mutations at every section in turn.
  struct CkptSection {
    std::string name;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Serializes the full training state as one checkpoint frame. When
  /// `sections` is non-null it receives the body section map.
  ckpt::Bytes checkpoint(std::vector<CkptSection>* sections = nullptr);
  void save_checkpoint(const std::string& path);
  /// Restores from a frame produced by checkpoint() under the same config;
  /// throws PayloadError on damage or config mismatch.
  void restore(ckpt::ByteView frame);
  void load_checkpoint(const std::string& path);

 private:
  void poison_gradients(nn::Model& model);
  /// Re-syncs the shared (rank-agnostic) training state — schedule cursor,
  /// tightening flag, optimizer state, RNG streams — from a survivor to a
  /// rejoining rank through a sealed CKPT frame, before the step runs. The
  /// simulator stores that state once, so the transfer is a bitwise no-op;
  /// what it buys is the real protocol's validation path and accounting.
  void resync_shared_state(std::size_t t);

  FtTrainerConfig cfg_;  ///< task and provider always set.
  std::vector<nn::Model> replicas_;
  comm::Communicator comm_;
  optim::StepLr lr_;
  AdaptiveSchedule schedule_;
  compress::CompressionEngine engine_;  ///< shared by whichever optimizer.
  std::unique_ptr<optim::DistSgd> sgd_;
  std::unique_ptr<optim::DistKfac> kfac_;
  /// Persistent family compressor (families other than kCompso); its
  /// cross-step state rides in the "compressor" checkpoint section.
  std::unique_ptr<compress::GradientCompressor> family_compressor_;
  /// kCompso's compressor of the current iteration.
  std::unique_ptr<compress::GradientCompressor> step_compressor_;
  std::unique_ptr<comm::FaultInjector> injector_;
  tensor::Rng data_rng_;
  tensor::Rng sr_rng_;
  std::size_t iteration_ = 0;
  bool tightened_ = false;  ///< adaptive bounds tightened after a NaN event.
  obs::ObsHooks obs_;
};

/// Curves and final scores of a run (Fig. 3, Fig. 6).
struct TrainResult {
  std::vector<double> loss_curve;      ///< training loss per iteration.
  std::vector<double> eval_curve;      ///< eval accuracy at 20 eval points.
  double final_accuracy = 0.0;         ///< held-out accuracy at the end.
  double final_loss = 0.0;
  double avg_compression_ratio = 1.0;  ///< mean over steps with wire bytes.
};

/// Runs `iterations` steps of `trainer`, evaluating after every
/// iterations / 20 of them.
TrainResult train(FaultTolerantTrainer& trainer, std::size_t iterations);

}  // namespace compso::core
