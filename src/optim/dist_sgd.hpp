#pragma once
// Distributed first-order baseline: data-parallel SGD with momentum, with
// an optional gradient compressor in the CocktailSGD style — each rank
// compresses its local gradient, payloads are all-gathered, every rank
// decompresses and averages. Optional per-rank error feedback compensates
// the compression error locally (the classic EF-SGD mechanism §6 mentions;
// COMPSO itself does not use EF, but CocktailSGD does).
//
// Fault tolerance (see recovery.hpp / DESIGN.md §9): with a RecoveryPolicy
// enabled the step survives corrupted or missing allgatherv entries via
// bounded re-send retries, falls back to the uncompressed allreduce after
// repeated failures (degrading the layer permanently past the threshold),
// skips updates whose averaged gradient went non-finite, and averages over
// the surviving ranks only when the Communicator has evicted a crashed
// rank (gradient-average renormalization).

#include "src/codec/wire.hpp"
#include "src/comm/communicator.hpp"
#include "src/compress/chunked_stream.hpp"
#include "src/compress/compression_engine.hpp"
#include "src/compress/compressor.hpp"
#include "src/nn/model.hpp"
#include "src/optim/recovery.hpp"
#include "src/optim/step_graph.hpp"

#include <exception>
#include <vector>

namespace compso::optim {

struct DistSgdConfig {
  double momentum = 0.9;
  bool error_feedback = true;  ///< only used when a compressor is attached.
  /// Chunked streaming transport (DESIGN.md §15): when > 0, each layer's
  /// compressed payloads ship as fixed-size chunk frames over per-round
  /// chunk collectives and reassemble on resumable cursors, with the
  /// retry ladder operating per round. 0 = monolithic allgatherv. Payload
  /// bytes and training trajectories are bit-identical either way.
  std::size_t chunk_bytes = 0;
};

class DistSgd {
 public:
  DistSgd(DistSgdConfig config, comm::Communicator& comm,
          std::vector<nn::Model*> replicas);

  /// One step after every rank ran forward/backward on its local batch.
  void step(double lr, const compress::GradientCompressor* compressor,
            tensor::Rng& rng);

  /// Attaches a parallel compression engine: layer compression jobs run on
  /// its pool while the optimizer thread drives layer i's collective and
  /// decode (compute/communication overlap, §4.4). Pass nullptr to return
  /// to the built-in serial engine. Output is bit-identical either way —
  /// every compression job draws from its own counter-derived Rng stream
  /// (CompressionEngine::task_rng), never from the shared step generator.
  void set_engine(compress::CompressionEngine* engine) noexcept {
    engine_ = engine;
  }

  void set_recovery(const RecoveryPolicy& policy) noexcept {
    policy_ = policy;
  }
  const RecoveryPolicy& recovery_policy() const noexcept { return policy_; }
  /// True if layer slot `s` has been degraded to the uncompressed path.
  bool layer_degraded(std::size_t s) const noexcept {
    return s < degraded_.size() && degraded_[s] != 0;
  }

  std::uint64_t last_original_bytes() const noexcept { return orig_bytes_; }
  std::uint64_t last_compressed_bytes() const noexcept { return comp_bytes_; }

  /// Schedule-shape counters of the last step() (see StepGraph::Stats):
  /// how many collectives ran with compute in flight, how many ran idle.
  const StepGraph::Stats& last_sched_stats() const noexcept {
    return sched_stats_;
  }

  /// Serializes the full optimizer state (velocity, EF residuals, recovery
  /// counters) for checkpointing; restore with load_state. The byte layout
  /// is internal to the checkpoint format (core/checkpoint.hpp).
  void save_state(std::vector<std::uint8_t>& out) const;
  void load_state(codec::wire::Reader& reader);

 private:
  DistSgdConfig cfg_;
  RecoveryPolicy policy_;
  comm::Communicator& comm_;
  std::vector<nn::Model*> replicas_;
  std::vector<std::size_t> layer_indices_;
  // velocity[layer] over flattened [W|b]; residual[rank][layer] for EF.
  std::vector<std::vector<float>> velocity_;
  std::vector<std::vector<std::vector<float>>> residual_;
  std::vector<std::uint8_t> degraded_;        ///< per layer slot.
  std::vector<std::uint32_t> consecutive_failures_;  ///< per layer slot.
  std::uint64_t orig_bytes_ = 0;
  std::uint64_t comp_bytes_ = 0;

  compress::CompressionEngine* engine_ = nullptr;
  compress::CompressionEngine serial_engine_{0};  ///< inline fallback.
  /// The step's task graph + the schedule-shape counters of its last run.
  StepGraph graph_;
  StepGraph::Stats sched_stats_;
  // Per-step workspaces (persistent so steady-state steps reuse capacity):
  // gradient snapshots and payloads indexed [slot][rank], decode buffers
  // indexed [rank] (one slot's decodes are live at a time: finish(s)
  // precedes gather(s - 1)), and the averaged gradient of that slot.
  std::vector<std::vector<std::vector<float>>> step_grads_;
  std::vector<std::vector<compress::Bytes>> send_payloads_;
  std::vector<std::vector<float>> decode_bufs_;
  std::vector<float> averaged_;
  // The live slot's gathered stream, its per-rank payload slices, and
  // attempt 1's errors: a truncated stream (gather) or a failed decode
  // (per rank), kept for finish(s) to retry or rethrow.
  std::vector<std::vector<std::uint8_t>> gather_recv_;
  std::vector<compress::ByteView> gather_slices_;
  std::exception_ptr gather_error_;
  std::vector<std::exception_ptr> decode_errors_;
  // Chunked-transport workspaces (persistent; reused slot after slot —
  // the per-slot exchanges run serially on the optimizer thread).
  std::vector<compress::ChunkedProducer> chunk_producers_;
  std::vector<compress::ChunkedConsumer> chunk_consumers_;

  compress::CompressionEngine& engine() noexcept {
    return engine_ ? *engine_ : serial_engine_;
  }

  /// Allgathers slot's payloads into gather_recv_ and slices the received
  /// stream per rank into gather_slices_; throws PayloadError when the
  /// stream is truncated.
  void gather_slot(std::size_t slot);

  /// Decodes one rank's payload into decode_bufs_[rank]; throws
  /// PayloadError on a damaged payload or a wrong element count.
  void decode_rank(const compress::GradientCompressor& compressor,
                   compress::ByteView payload, std::size_t rank,
                   std::size_t n);

  /// Attempts [first_attempt, attempts) of the unchunked exchange, run
  /// serially (gather, then a decode batch), counting a retry before each
  /// attempt after the first. Returns true once one decodes; false (with
  /// a decode failure counted) when every attempt failed and the caller
  /// must use the uncompressed fallback.
  bool exchange_attempts(std::size_t slot, std::size_t n,
                         const compress::GradientCompressor& compressor,
                         std::size_t first_attempt);

  /// The chunked-transport exchange (DESIGN.md §15): frames each rank's
  /// payload (engine batch), ships per-round chunk collectives with
  /// per-round bounded retries, reassembles on the cursors, and decodes
  /// into decode_bufs_. Returns false like exchange_attempts.
  bool chunked_average(std::size_t slot, std::size_t n,
                       const compress::GradientCompressor& compressor);

  /// Adds slot's participating payload sizes to comp_bytes_.
  void count_payload_bytes(std::size_t slot);
  /// Recovery counters of the retry ladder.
  void count_retry(const char* event);
  void count_decode_failure(std::size_t slot);

  /// averaged_[i] = sum over participants r, in rank order, of
  /// decode_bufs_[r][i] / active: one engine batch over fixed element
  /// ranges, bit-identical at any engine thread count. Returns false when
  /// the average holds a NaN or ±Inf (checked inside the range jobs).
  bool average_decoded(std::size_t n);
  /// averaged_ = the lead's allreduced raw gradient of `slot` / active;
  /// returns false like average_decoded.
  bool average_reduced(std::size_t slot, std::size_t n);

  /// The tail of slot's exchange on the optimizer thread: the average —
  /// of the decoded payloads when `compressed` and `decoded_ok`, else of
  /// the raw gradients through the allreduce fallback — then the
  /// non-finite guard, momentum and every replica's update.
  void finish_slot(std::size_t slot, std::size_t li, std::size_t n, double lr,
                   const compress::GradientCompressor* compressor,
                   bool compressed, bool decoded_ok);
};

}  // namespace compso::optim
