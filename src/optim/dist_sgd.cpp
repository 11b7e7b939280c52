#include "src/optim/dist_sgd.hpp"

#include "src/codec/ckpt.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace compso::optim {
namespace {

/// Flattens a layer's [W | b] gradient into a reusable vector.
void flat_gradient_into(nn::Layer& layer, std::vector<float>& out) {
  auto* wg = layer.weight_grad();
  auto* bg = layer.bias_grad();
  out.resize(wg->size() + bg->size());
  std::copy(wg->span().begin(), wg->span().end(), out.begin());
  std::copy(bg->span().begin(), bg->span().end(),
            out.begin() + static_cast<std::ptrdiff_t>(wg->size()));
}

/// Elements per range of the exchange tail's engine batches: a range's
/// decode buffers, average and velocity stay cache-resident, and a range
/// is enough work to amortize one engine job.
constexpr std::size_t kTailRangeElems = 32 * 1024;

/// Runs fn(lo, hi) over [0, n) in fixed kTailRangeElems ranges as one
/// engine batch (inline when one range covers n). Ranges depend on n
/// alone and every element is written by exactly one range, so the
/// result is bit-identical at any engine thread count.
template <typename Fn>
void for_each_range(compress::CompressionEngine& eng, std::size_t n,
                    const Fn& fn) {
  if (n <= kTailRangeElems) {
    fn(std::size_t{0}, n);
    return;
  }
  std::vector<std::function<void()>> jobs;
  jobs.reserve((n + kTailRangeElems - 1) / kTailRangeElems);
  for (std::size_t lo = 0; lo < n; lo += kTailRangeElems) {
    const std::size_t hi = std::min(n, lo + kTailRangeElems);
    jobs.push_back([&fn, lo, hi] { fn(lo, hi); });
  }
  eng.run_batch(std::move(jobs));
}

/// Like for_each_range, for range jobs that report a flag: returns true
/// when fn(lo, hi) returned true for every range.
template <typename Fn>
bool all_ranges(compress::CompressionEngine& eng, std::size_t n,
                const Fn& fn) {
  std::vector<std::uint8_t> ok((n + kTailRangeElems - 1) / kTailRangeElems,
                               1);
  for_each_range(eng, n, [&](std::size_t lo, std::size_t hi) {
    ok[lo / kTailRangeElems] = fn(lo, hi) ? 1 : 0;
  });
  return std::all_of(ok.begin(), ok.end(),
                     [](std::uint8_t v) { return v != 0; });
}

/// The [lo, hi) part of the SGD update W|b -= lr * update[i].
void apply_flat_update(nn::Layer& layer, std::span<const float> update,
                       double lr, std::size_t lo, std::size_t hi) {
  const std::span<float> w = layer.weight()->span();
  const std::span<float> b = layer.bias()->span();
  for (std::size_t i = lo; i < std::min(hi, w.size()); ++i) {
    w[i] -= static_cast<float>(lr) * update[i];
  }
  for (std::size_t i = std::max(lo, w.size()); i < hi; ++i) {
    b[i - w.size()] -= static_cast<float>(lr) * update[i];
  }
}

/// True when no value is NaN or ±Inf: one branch-free OR over the
/// exponent test, so the scan vectorizes.
bool all_finite(std::span<const float> values) noexcept {
  std::uint32_t bad = 0;
  for (const float v : values) {
    bad |= static_cast<std::uint32_t>(
        (std::bit_cast<std::uint32_t>(v) & 0x7F800000U) == 0x7F800000U);
  }
  return bad == 0;
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

void put_f32_vec(std::vector<std::uint8_t>& out,
                 const std::vector<float>& v) {
  put_u64(out, v.size());
  const std::size_t at = out.size();
  out.resize(at + v.size() * sizeof(float));
  if (!v.empty()) std::memcpy(out.data() + at, v.data(), v.size() * 4);
}

std::vector<float> get_f32_vec(codec::wire::Reader& r) {
  const auto n = r.bounded_u64(codec::wire::kMaxElementCount, "sgd vec size");
  // A corrupted count that survives re-sealing must fail typed, not drive
  // a multi-GiB allocation (the ckpt fuzz harness aims exactly here).
  if (n * sizeof(float) > r.remaining()) {
    throw PayloadError("DistSgd: vec size overruns checkpoint body");
  }
  std::vector<float> v(n);
  for (auto& x : v) x = r.f32();
  return v;
}

}  // namespace

DistSgd::DistSgd(DistSgdConfig config, comm::Communicator& comm,
                 std::vector<nn::Model*> replicas)
    : cfg_(config), comm_(comm), replicas_(std::move(replicas)) {
  if (replicas_.size() != comm_.world_size()) {
    throw std::invalid_argument("DistSgd: one replica per rank required");
  }
  layer_indices_ = replicas_[0]->trainable_layers();
  velocity_.resize(layer_indices_.size());
  residual_.assign(comm_.world_size(),
                   std::vector<std::vector<float>>(layer_indices_.size()));
  degraded_.assign(layer_indices_.size(), 0);
  consecutive_failures_.assign(layer_indices_.size(), 0);
}

bool DistSgd::average_decoded(std::size_t n) {
  std::vector<const float*> recs;
  for (std::size_t r = 0; r < comm_.world_size(); ++r) {
    if (comm_.is_participating(r)) recs.push_back(decode_bufs_[r].data());
  }
  const auto active = static_cast<float>(recs.size());
  averaged_.resize(n);
  // Per element: start from 0, add every participant's value / active in
  // rank order — the float sum is the same whatever the range split. The
  // non-finite guard's scan rides the same range while it is in cache.
  return all_ranges(engine(), n, [&](std::size_t lo, std::size_t hi) {
    std::fill(averaged_.begin() + static_cast<std::ptrdiff_t>(lo),
              averaged_.begin() + static_cast<std::ptrdiff_t>(hi), 0.0F);
    for (const float* rec : recs) {
      for (std::size_t i = lo; i < hi; ++i) averaged_[i] += rec[i] / active;
    }
    return all_finite(std::span<const float>(averaged_).subspan(lo, hi - lo));
  });
}

bool DistSgd::average_reduced(std::size_t slot, std::size_t n) {
  const std::vector<float>& sum = step_grads_[slot][comm_.first_participant()];
  const auto active = static_cast<float>(comm_.participant_count());
  averaged_.resize(n);
  return all_ranges(engine(), n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) averaged_[i] = sum[i] / active;
    return all_finite(std::span<const float>(averaged_).subspan(lo, hi - lo));
  });
}

void DistSgd::count_payload_bytes(std::size_t slot) {
  for (std::size_t r = 0; r < comm_.world_size(); ++r) {
    if (comm_.is_participating(r)) {
      comp_bytes_ += send_payloads_[slot][r].size();
    }
  }
}

void DistSgd::count_retry(const char* event) {
  ++comm_.recovery().decode_retries;
  comm_.obs().count("recovery.decode_retries");
  comm_.obs().instant(obs::kMainTrack, event, "recovery");
}

void DistSgd::count_decode_failure(std::size_t slot) {
  ++comm_.recovery().decode_failures;
  comm_.obs().count("recovery.decode_failures");
  if (++consecutive_failures_[slot] >= policy_.fallback_after &&
      degraded_[slot] == 0) {
    degraded_[slot] = 1;
    ++comm_.recovery().degraded_layers;
    comm_.obs().count("recovery.degraded_layers");
  }
}

bool DistSgd::chunked_average(std::size_t slot, std::size_t n,
                              const compress::GradientCompressor& compressor) {
  const std::vector<compress::Bytes>& send = send_payloads_[slot];
  const std::size_t world = comm_.world_size();
  const std::size_t active = comm_.participant_count();
  const std::size_t chunkb = cfg_.chunk_bytes;
  if (chunk_producers_.size() < world) chunk_producers_.resize(world);
  if (chunk_consumers_.size() < world) chunk_consumers_.resize(world);

  // Frame every rank's payload into its chunk grid as one engine batch
  // (the CRC work parallelizes across ranks when a pool is attached).
  std::size_t rounds = 0;
  {
    std::vector<std::function<void()>> jobs;
    for (std::size_t r = 0; r < world; ++r) {
      chunk_consumers_[r].reset();
      if (!comm_.is_participating(r)) continue;
      chunk_producers_[r].reserve_for(compressor.max_payload_bytes(n),
                                      chunkb);
      chunk_producers_[r].prepare(compress::ByteView(send[r]), chunkb);
      rounds = std::max(rounds, chunk_producers_[r].chunk_count());
      jobs.push_back([this, r] {
        for (std::size_t k = 0; k < chunk_producers_[r].chunk_count(); ++k) {
          chunk_producers_[r].frame_chunk(k);
        }
      });
    }
    engine().run_batch(std::move(jobs));
  }

  // Ship round by round; the retry ladder operates per round — a damaged
  // chunk re-sends one round's frames, never the whole payload (one-shot
  // injector events mean the retried round is clean).
  const std::size_t attempts =
      policy_.enabled ? policy_.max_decode_retries + 1 : 1;
  for (std::size_t k = 0; k < rounds; ++k) {
    std::vector<std::span<const std::uint8_t>> frames(world);
    bool any = false;
    for (std::size_t r = 0; r < world; ++r) {
      if (!comm_.is_participating(r)) continue;
      if (k < chunk_producers_[r].chunk_count()) {
        frames[r] = chunk_producers_[r].chunk(k);
        any = true;
      }
    }
    if (!any) break;
    bool round_ok = false;
    for (std::size_t attempt = 0; attempt < attempts && !round_ok;
         ++attempt) {
      std::vector<std::vector<std::uint8_t>> recv;
      comm_.allgatherv_chunks(frames, recv, k);
      try {
        for (std::size_t r = 0; r < world; ++r) {
          if (frames[r].empty()) continue;
          // A failed attempt may have fed some ranks before another's
          // frame threw; chunks_fed > k marks those as done this round.
          if (chunk_consumers_[r].chunks_fed() > k) continue;
          chunk_consumers_[r].feed(compress::ByteView(recv[r]));
        }
        round_ok = true;
      } catch (const PayloadError&) {
        if (!policy_.enabled) throw;
        if (attempt + 1 < attempts) count_retry("chunk.retry");
      }
    }
    if (!round_ok) {
      count_decode_failure(slot);
      return false;
    }
  }

  // Decode the reassembled payloads (bit-identical to the unchunked send
  // bytes) as one engine batch.
  try {
    std::vector<std::function<void()>> jobs;
    jobs.reserve(active);
    for (std::size_t r = 0; r < world; ++r) {
      if (!comm_.is_participating(r)) continue;
      jobs.push_back([this, &compressor, r, n] {
        decode_rank(compressor, chunk_consumers_[r].payload(), r, n);
      });
    }
    engine().run_batch(std::move(jobs));
  } catch (const PayloadError&) {
    if (!policy_.enabled) throw;
    count_decode_failure(slot);
    return false;
  }
  return true;
}

void DistSgd::decode_rank(const compress::GradientCompressor& compressor,
                          compress::ByteView payload, std::size_t rank,
                          std::size_t n) {
  std::vector<float>& buf = decode_bufs_[rank];
  compressor.decompress_into(payload, buf);
  if (buf.size() != n) {
    throw PayloadError("DistSgd: decompressed size mismatch");
  }
}

void DistSgd::gather_slot(std::size_t slot) {
  const std::vector<compress::Bytes>& send = send_payloads_[slot];
  comm_.allgatherv(send, gather_recv_);
  // Every rank decodes the same concatenation; decode once — from the
  // *received* stream (sliced by the known send sizes), so transport
  // corruption actually reaches the payload validation layer.
  const compress::ByteView gathered(gather_recv_[comm_.first_participant()]);
  gather_slices_.assign(comm_.world_size(), {});
  std::size_t off = 0;
  for (std::size_t r = 0; r < comm_.world_size(); ++r) {
    if (!comm_.is_participating(r)) continue;
    if (send[r].size() > gathered.size() - off) {
      throw PayloadError("DistSgd: gathered stream truncated");
    }
    gather_slices_[r] = gathered.subspan(off, send[r].size());
    off += send[r].size();
  }
}

bool DistSgd::exchange_attempts(std::size_t slot, std::size_t n,
                                const compress::GradientCompressor& compressor,
                                std::size_t first_attempt) {
  const std::size_t attempts =
      policy_.enabled ? policy_.max_decode_retries + 1 : 1;
  for (std::size_t attempt = first_attempt; attempt < attempts; ++attempt) {
    // Re-send the same payloads through a fresh collective.
    if (attempt > 0) count_retry("sgd.decode_retry");
    try {
      gather_slot(slot);
      // The per-rank decodes are independent, so they run as one engine
      // batch (parallel when a pool is attached).
      std::vector<std::function<void()>> jobs;
      for (std::size_t r = 0; r < comm_.world_size(); ++r) {
        if (!comm_.is_participating(r)) continue;
        jobs.push_back([this, &compressor, r, n] {
          decode_rank(compressor, gather_slices_[r], r, n);
        });
      }
      engine().run_batch(std::move(jobs));
      return true;
    } catch (const PayloadError&) {
      if (!policy_.enabled) throw;
    }
  }
  count_decode_failure(slot);
  return false;
}

void DistSgd::finish_slot(std::size_t slot, std::size_t li, std::size_t n,
                          double lr,
                          const compress::GradientCompressor* compressor,
                          bool compressed, bool decoded_ok) {
  const obs::ObsHooks& hooks = comm_.obs();
  const std::size_t world = comm_.world_size();
  const std::size_t active = comm_.participant_count();
  bool finite;
  if (compressed && decoded_ok) {
    consecutive_failures_[slot] = 0;
    finite = average_decoded(n);
  } else {
    if (compressed) {
      ++comm_.recovery().fallback_steps;
      hooks.count("recovery.fallback_steps");
      hooks.instant(obs::kMainTrack, "sgd.layer_fallback", "recovery");
      // The raw-gradient fallback below delivers the *full* gradient; a
      // stateful compressor rolls its per-stream state back so the
      // dropped payload's error is not double-counted next step
      // (DESIGN.md §17).
      for (std::size_t r = 0; r < world; ++r) {
        if (!comm_.is_participating(r)) continue;
        compressor->notify_fallback(static_cast<std::uint64_t>(slot) * world +
                                    r);
      }
    }
    // Plain ring allreduce of the raw gradients — the primary path when
    // no compressor is attached, and the recovery fallback when decode
    // retries were exhausted (the snapshots are untouched by the
    // compressed attempt, so the fallback reduces the exact local
    // gradients).
    std::vector<std::span<float>> views;
    views.reserve(world);
    for (auto& g : step_grads_[slot]) views.push_back(g);
    comm_.allreduce_sum(views);
    finite = average_reduced(slot, n);
    comp_bytes_ += active * n * sizeof(float);
  }

  // Non-finite guard: a CRC-clean payload can still carry NaN/Inf (an
  // upstream arithmetic fault); never let it reach the weights silently.
  if (!finite) {
    if (policy_.enabled && policy_.skip_nonfinite_steps) {
      ++comm_.recovery().nonfinite_skips;
      hooks.count("recovery.nonfinite_skips");
      return;  // skip this layer's update; momentum untouched
    }
    // StepGraph::run reaps every in-flight job before rethrowing.
    throw NonFiniteError("DistSgd: non-finite averaged gradient");
  }

  auto& vel = velocity_[slot];
  if (vel.size() != n) vel.assign(n, 0.0F);
  std::vector<nn::Layer*> targets;
  for (std::size_t r = 0; r < world; ++r) {
    if (comm_.is_participating(r) || comm_.is_rejoining(r)) {
      targets.push_back(&replicas_[r]->layer(li));
    }
  }
  // Momentum, then every replica's update, per element range. Weight
  // updates never touch gradient buffers, so in-flight compression of
  // other layers (each reading its own snapshots) is unaffected.
  for_each_range(engine(), n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      vel[i] = static_cast<float>(cfg_.momentum) * vel[i] + averaged_[i];
    }
    for (nn::Layer* layer : targets) {
      apply_flat_update(*layer, vel, lr, lo, hi);
    }
  });
}

void DistSgd::step(double lr, const compress::GradientCompressor* compressor,
                   tensor::Rng& rng) {
  const std::size_t world = comm_.world_size();
  const std::size_t active = comm_.participant_count();
  const std::size_t slots = layer_indices_.size();
  orig_bytes_ = 0;
  comp_bytes_ = 0;
  const obs::ObsHooks& hooks = comm_.obs();
  hooks.count("sgd.steps");
  auto step_span = hooks.span(obs::kMainTrack, "sgd.step", "sgd");
  compress::CompressionEngine& eng = engine();
  eng.wait_all();  // reap any jobs a previous exceptional step left behind

  // One draw from the step generator seeds every compression job's
  // private stream (CompressionEngine::task_rng). The draw count per step
  // is therefore fixed (1 with a compressor, 0 without) no matter which
  // layers end up degraded, non-finite or evicted — which is what keeps
  // checkpoint/resume and fault/clean runs bit-exact, and what makes the
  // parallel engine's output identical to the serial one.
  const std::uint64_t step_seed = compressor != nullptr ? rng() : 0;

  step_grads_.resize(slots);
  send_payloads_.resize(slots);
  decode_bufs_.resize(world);
  decode_errors_.assign(world, nullptr);

  // Phase 1: snapshot and finiteness-check every (slot, rank) [W|b]
  // gradient as one engine batch, then decide each slot's path.
  std::vector<std::uint8_t> finite(slots * world, 1);
  {
    std::vector<std::function<void()>> jobs;
    jobs.reserve(slots * active);
    for (std::size_t s = 0; s < slots; ++s) {
      step_grads_[s].resize(world);
      send_payloads_[s].resize(world);
      for (std::size_t r = 0; r < world; ++r) {
        if (!comm_.is_participating(r)) continue;
        jobs.push_back([this, &finite, s, r, world] {
          std::vector<float>& g = step_grads_[s][r];
          flat_gradient_into(replicas_[r]->layer(layer_indices_[s]), g);
          finite[s * world + r] = all_finite(g) ? 1 : 0;
        });
      }
    }
    eng.run_batch(std::move(jobs));
  }
  std::vector<std::size_t> layer_n(slots, 0);
  std::vector<std::uint8_t> use_comp(slots, 0);
  const std::size_t lead_rank = comm_.first_participant();
  for (std::size_t s = 0; s < slots; ++s) {
    layer_n[s] = step_grads_[s][lead_rank].size();
    // A non-finite local gradient must not enter the compressor (NaN
    // through quantization is undefined); route it through the raw
    // allreduce so the post-average guard sees it as NaN and handles it
    // as policy says.
    const bool grads_finite =
        std::all_of(finite.begin() + static_cast<std::ptrdiff_t>(s * world),
                    finite.begin() + static_cast<std::ptrdiff_t>(s * world +
                                                                 world),
                    [](std::uint8_t f) { return f != 0; });
    orig_bytes_ += active * layer_n[s] * sizeof(float);
    use_comp[s] =
        compressor != nullptr && degraded_[s] == 0 && grads_finite ? 1 : 0;
  }

  // Graph build (DESIGN.md §13.1): one compute task per active (slot,
  // rank) compression; then, per slot, the exchange on the optimizer
  // thread. Task ids are slot * world + rank: fixed by (slot, rank)
  // alone, so eviction or degradation of one layer never shifts another
  // task's Rng stream. Backward-order priorities (higher slot first)
  // mirror the order the gradients become ready in a real backward pass:
  // while the main thread drives slot s's collective + decode, the
  // engine's workers compress slots s-1..0 — the host-side analogue of
  // the paper's compression/communication overlap.
  graph_.clear();
  // Rejoin re-sync (DESIGN.md §14): per-layer compute tasks copy the lead
  // replica's parameters into each rejoining replica through a sealed CKPT
  // mini-frame (validated framing, like a checkpoint restore) and reset
  // the rejoiner's error-feedback residual — a rejoiner starts with an
  // empty compressor memory, exactly like a fresh rank. Each slot's
  // exchange waits on its resync (the exchange both reads the lead's and
  // writes the rejoiner's parameters), so re-sync of later layers
  // overlaps earlier layers' collectives.
  const std::vector<std::size_t> rejoining = comm_.rejoining_ranks();
  std::vector<StepGraph::TaskId> resync_ids(slots, 0);
  if (!rejoining.empty()) {
    for (std::size_t s = 0; s < slots; ++s) {
      const std::size_t li = layer_indices_[s];
      resync_ids[s] = graph_.add_compute(
          "resync" + std::to_string(s), static_cast<int>(s),
          [this, li, s, lead_rank, rejoining, compressor, world] {
            auto& src = replicas_[lead_rank]->layer(li);
            codec::ckpt::Bytes body;
            codec::ckpt::put_tensor(body, *src.weight());
            codec::ckpt::put_tensor(body, *src.bias());
            const codec::ckpt::Bytes frame = codec::ckpt::seal_frame(body);
            const auto view = codec::ckpt::open_frame(frame);
            codec::wire::Reader reader(view);
            tensor::Tensor w = codec::ckpt::get_tensor(
                reader, src.weight()->shape(), "resync weight");
            tensor::Tensor b = codec::ckpt::get_tensor(
                reader, src.bias()->shape(), "resync bias");
            for (std::size_t j : rejoining) {
              auto& dst = replicas_[j]->layer(li);
              *dst.weight() = w;
              *dst.bias() = b;
              residual_[j][s].assign(w.size() + b.size(), 0.0F);
              // A rejoiner starts with empty compressor memory: drop any
              // stateful-compressor stream keyed to its (slot, rank).
              if (compressor != nullptr) {
                compressor->reset_stream(
                    static_cast<std::uint64_t>(s) * world + j);
              }
            }
          });
    }
  }
  // first_ids[s] starts slot s's exchange, last_ids[s] ends it.
  std::vector<StepGraph::TaskId> first_ids(slots, 0);
  std::vector<StepGraph::TaskId> last_ids(slots, 0);
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t li = layer_indices_[s];
    const std::size_t n = layer_n[s];
    const int prio = static_cast<int>(s);
    std::vector<StepGraph::TaskId> comp_ids;
    if (use_comp[s]) {
      for (std::size_t r = 0; r < world; ++r) {
        if (!comm_.is_participating(r)) continue;
        comp_ids.push_back(graph_.add_compute(
            "grad_compress" + std::to_string(s), prio,
            [this, compressor, step_seed, s, r, n, world] {
              // Stream id == task id: stateful compressors (EF wrapper,
              // sketch seed counters) key cross-step state by it, so it
              // must be fixed by (slot, rank) alone (DESIGN.md §17).
              const auto stream = static_cast<std::uint64_t>(s) * world + r;
              tensor::Rng task_rng =
                  compress::CompressionEngine::task_rng(step_seed, stream);
              const std::vector<float>& grad = step_grads_[s][r];
              // Compress once (with optional error feedback); retries
              // re-send these exact payloads, so the training trajectory
              // is identical to a fault-free run.
              if (!cfg_.error_feedback) {
                compressor->compress_stream_into(stream, grad, task_rng,
                                                 send_payloads_[s][r]);
                return;
              }
              auto& res = residual_[r][s];
              thread_local std::vector<float> to_send;
              thread_local std::vector<float> rec;
              to_send = grad;
              if (res.size() != n) res.assign(n, 0.0F);
              for (std::size_t i = 0; i < n; ++i) to_send[i] += res[i];
              compressor->compress_stream_into(stream, to_send, task_rng,
                                               send_payloads_[s][r]);
              compressor->decompress_into(send_payloads_[s][r], rec);
              for (std::size_t i = 0; i < n; ++i) {
                res[i] = to_send[i] - rec[i];
              }
            }));
      }
    }
    const bool pipelined = use_comp[s] && cfg_.chunk_bytes == 0;
    if (pipelined) {
      // The unchunked exchange as three kinds of task: gather(s) runs the
      // collective (attempt 1 of the retry ladder), one decode(s, r)
      // compute task per rank decodes on the pool, and finish(s) joins
      // them, retries or falls back if a decode failed, then averages,
      // guards and updates.
      first_ids[s] = graph_.add_main(
          "gather" + std::to_string(s), prio,
          [this, s] {
            gather_error_ = nullptr;
            count_payload_bytes(s);
            try {
              gather_slot(s);
            } catch (const PayloadError&) {
              gather_error_ = std::current_exception();
            }
          },
          /*is_comm=*/true);
      last_ids[s] = graph_.add_main(
          "finish" + std::to_string(s), prio,
          [this, compressor, lr, s, li, n, world] {
            // Attempt 1's error: a truncated stream, else the first
            // failed decode in rank order (what a decode batch rethrows).
            std::exception_ptr error = gather_error_;
            for (std::size_t r = 0; r < world && error == nullptr; ++r) {
              error = decode_errors_[r];
            }
            std::fill(decode_errors_.begin(), decode_errors_.end(), nullptr);
            bool ok = error == nullptr;
            if (!ok) {
              if (!policy_.enabled) std::rethrow_exception(error);
              ok = exchange_attempts(s, n, *compressor, /*first_attempt=*/1);
            }
            gather_recv_.clear();
            finish_slot(s, li, n, lr, compressor, /*compressed=*/true, ok);
          });
      for (std::size_t r = 0; r < world; ++r) {
        if (!comm_.is_participating(r)) continue;
        const auto dec = graph_.add_compute(
            "decode" + std::to_string(s), prio,
            [this, compressor, r, n] {
              if (gather_error_ != nullptr) return;
              try {
                decode_rank(*compressor, gather_slices_[r], r, n);
              } catch (const PayloadError&) {
                decode_errors_[r] = std::current_exception();
              }
            });
        graph_.depends(dec, first_ids[s]);
        graph_.depends(last_ids[s], dec);
      }
      graph_.depends(last_ids[s], first_ids[s]);
    } else {
      // Uncompressed (or degraded / non-finite) slots and the chunked
      // transport: one exchange task drives the collectives, then the
      // same tail as finish(s).
      first_ids[s] = graph_.add_main(
          "exchange" + std::to_string(s), prio,
          [this, compressor, lr, s, li, n, use = use_comp[s] != 0] {
            bool ok = false;
            if (use) {
              count_payload_bytes(s);
              ok = chunked_average(s, n, *compressor);
            }
            finish_slot(s, li, n, lr, compressor, use, ok);
          },
          /*is_comm=*/true);
      last_ids[s] = first_ids[s];
    }
    for (const auto c : comp_ids) graph_.depends(first_ids[s], c);
    if (!rejoining.empty()) graph_.depends(first_ids[s], resync_ids[s]);
  }
  // finish(s) precedes gather(s - 1): collectives, fault-injector draws,
  // retries and fallbacks keep the one slot-after-slot order, and only one
  // slot's decodes use the per-rank decode buffers at a time.
  for (std::size_t s = 0; s + 1 < slots; ++s) {
    graph_.depends(first_ids[s], last_ids[s + 1]);
  }
  sched_stats_ = graph_.run(eng, hooks);
  hooks.count("sgd.orig_bytes", orig_bytes_);
  hooks.count("sgd.comp_bytes", comp_bytes_);
}

void DistSgd::save_state(std::vector<std::uint8_t>& out) const {
  put_u64(out, velocity_.size());
  for (const auto& v : velocity_) put_f32_vec(out, v);
  put_u64(out, residual_.size());
  for (const auto& per_rank : residual_) {
    put_u64(out, per_rank.size());
    for (const auto& v : per_rank) put_f32_vec(out, v);
  }
  for (auto d : degraded_) out.push_back(d);
  for (auto c : consecutive_failures_) put_u64(out, c);
}

void DistSgd::load_state(codec::wire::Reader& reader) {
  const auto slots = reader.bounded_u64(1 << 20, "sgd velocity slots");
  if (slots != velocity_.size()) {
    throw PayloadError("DistSgd: checkpoint layer count mismatch");
  }
  for (auto& v : velocity_) v = get_f32_vec(reader);
  const auto ranks = reader.bounded_u64(1 << 20, "sgd residual ranks");
  if (ranks != residual_.size()) {
    throw PayloadError("DistSgd: checkpoint world size mismatch");
  }
  for (auto& per_rank : residual_) {
    const auto m = reader.bounded_u64(1 << 20, "sgd residual slots");
    if (m != per_rank.size()) {
      throw PayloadError("DistSgd: checkpoint residual shape mismatch");
    }
    for (auto& v : per_rank) v = get_f32_vec(reader);
  }
  for (auto& d : degraded_) d = reader.u8();
  for (auto& c : consecutive_failures_) {
    c = static_cast<std::uint32_t>(
        reader.bounded_u64(~std::uint32_t{0}, "sgd failure counter"));
  }
}

}  // namespace compso::optim
