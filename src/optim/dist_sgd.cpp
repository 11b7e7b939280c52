#include "src/optim/dist_sgd.hpp"

#include "src/codec/ckpt.hpp"

#include <algorithm>
#include <cmath>
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

bool all_finite(std::span<const float> values) noexcept {
  for (float v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
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

void DistSgd::average_decoded(std::size_t n, std::vector<float>& averaged) {
  std::vector<const float*> recs;
  for (std::size_t r = 0; r < comm_.world_size(); ++r) {
    if (comm_.is_participating(r)) recs.push_back(decode_bufs_[r].data());
  }
  const auto active = static_cast<float>(recs.size());
  averaged.resize(n);
  // Per element: start from 0, add every participant's value / active in
  // rank order — the float sum is the same whatever the range split.
  for_each_range(engine(), n, [&](std::size_t lo, std::size_t hi) {
    std::fill(averaged.begin() + static_cast<std::ptrdiff_t>(lo),
              averaged.begin() + static_cast<std::ptrdiff_t>(hi), 0.0F);
    for (const float* rec : recs) {
      for (std::size_t i = lo; i < hi; ++i) averaged[i] += rec[i] / active;
    }
  });
}

bool DistSgd::chunked_average(
    std::size_t slot, std::size_t n, const std::vector<compress::Bytes>& send,
    const compress::GradientCompressor& compressor,
    std::vector<float>& averaged) {
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
        if (attempt + 1 < attempts) {
          ++comm_.recovery().decode_retries;
          comm_.obs().count("recovery.decode_retries");
          comm_.obs().instant(obs::kMainTrack, "chunk.retry", "recovery");
        }
      }
    }
    if (!round_ok) {
      ++comm_.recovery().decode_failures;
      comm_.obs().count("recovery.decode_failures");
      if (++consecutive_failures_[slot] >= policy_.fallback_after &&
          degraded_[slot] == 0) {
        degraded_[slot] = 1;
        ++comm_.recovery().degraded_layers;
        comm_.obs().count("recovery.degraded_layers");
      }
      return false;
    }
  }

  // Decode the reassembled payloads (bit-identical to the unchunked send
  // bytes) as one engine batch, then accumulate in rank order.
  try {
    std::vector<std::function<void()>> jobs;
    jobs.reserve(active);
    for (std::size_t r = 0; r < world; ++r) {
      if (!comm_.is_participating(r)) continue;
      jobs.push_back([this, &compressor, r, n] {
        auto& buf = decode_bufs_[r];
        compressor.decompress_into(chunk_consumers_[r].payload(), buf);
        if (buf.size() != n) {
          throw PayloadError("DistSgd: decompressed size mismatch");
        }
      });
    }
    engine().run_batch(std::move(jobs));
  } catch (const PayloadError&) {
    if (!policy_.enabled) throw;
    ++comm_.recovery().decode_failures;
    comm_.obs().count("recovery.decode_failures");
    if (++consecutive_failures_[slot] >= policy_.fallback_after &&
        degraded_[slot] == 0) {
      degraded_[slot] = 1;
      ++comm_.recovery().degraded_layers;
      comm_.obs().count("recovery.degraded_layers");
    }
    return false;
  }
  average_decoded(n, averaged);
  consecutive_failures_[slot] = 0;
  return true;
}

bool DistSgd::compressed_average(
    std::size_t slot, std::size_t n, const std::vector<compress::Bytes>& send,
    const compress::GradientCompressor& compressor,
    std::vector<float>& averaged) {
  if (cfg_.chunk_bytes > 0) {
    return chunked_average(slot, n, send, compressor, averaged);
  }
  const std::size_t world = comm_.world_size();
  const std::size_t active = comm_.participant_count();

  const std::size_t attempts =
      policy_.enabled ? policy_.max_decode_retries + 1 : 1;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    std::vector<std::vector<std::uint8_t>> recv;
    comm_.allgatherv(send, recv);
    try {
      // Every rank decodes the same concatenation; decode once — from the
      // *received* stream (sliced by the known send sizes), so transport
      // corruption actually reaches the payload validation layer. The
      // per-rank decodes are independent, so they run as one engine batch
      // (parallel when a pool is attached); accumulation stays on this
      // thread in rank order, keeping the float sum deterministic.
      const compress::ByteView gathered(recv[comm_.first_participant()]);
      std::vector<std::function<void()>> jobs;
      jobs.reserve(active);
      std::size_t off = 0;
      for (std::size_t r = 0; r < world; ++r) {
        if (!comm_.is_participating(r)) continue;
        if (send[r].size() > gathered.size() - off) {
          throw PayloadError("DistSgd: gathered stream truncated");
        }
        const compress::ByteView slice = gathered.subspan(off, send[r].size());
        off += send[r].size();
        jobs.push_back([this, &compressor, slice, r, n] {
          auto& buf = decode_bufs_[r];
          compressor.decompress_into(slice, buf);
          if (buf.size() != n) {
            throw PayloadError("DistSgd: decompressed size mismatch");
          }
        });
      }
      engine().run_batch(std::move(jobs));
      average_decoded(n, averaged);
      consecutive_failures_[slot] = 0;
      return true;
    } catch (const PayloadError&) {
      if (!policy_.enabled) throw;
      if (attempt + 1 < attempts) {
        ++comm_.recovery().decode_retries;
        comm_.obs().count("recovery.decode_retries");
        comm_.obs().instant(obs::kMainTrack, "sgd.decode_retry", "recovery");
        continue;  // re-send the same payloads through a fresh collective
      }
      ++comm_.recovery().decode_failures;
      comm_.obs().count("recovery.decode_failures");
      if (++consecutive_failures_[slot] >= policy_.fallback_after &&
          degraded_[slot] == 0) {
        degraded_[slot] = 1;
        ++comm_.recovery().degraded_layers;
        comm_.obs().count("recovery.degraded_layers");
      }
      return false;
    }
  }
  return false;
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

  // Phase 1: snapshot every layer's [W|b] gradient and decide its path.
  std::vector<std::size_t> layer_n(slots, 0);
  std::vector<std::uint8_t> use_comp(slots, 0);
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t li = layer_indices_[s];
    step_grads_[s].resize(world);
    send_payloads_[s].resize(world);
    bool grads_finite = true;
    for (std::size_t r = 0; r < world; ++r) {
      if (!comm_.is_participating(r)) continue;
      flat_gradient_into(replicas_[r]->layer(li), step_grads_[s][r]);
      layer_n[s] = step_grads_[s][r].size();
      // A non-finite local gradient must not enter the compressor (NaN
      // through quantization is undefined); route it through the raw
      // allreduce so the post-average guard below sees it as NaN and
      // handles it as policy says.
      grads_finite = grads_finite && all_finite(step_grads_[s][r]);
    }
    orig_bytes_ += active * layer_n[s] * sizeof(float);
    use_comp[s] =
        compressor != nullptr && degraded_[s] == 0 && grads_finite ? 1 : 0;
  }

  // Graph build (DESIGN.md §13): one compute task per active (slot, rank)
  // compression and one main-thread exchange+update task per slot, with
  // the exchange depending on the slot's compressions. Task ids are
  // slot * world + rank: fixed by (slot, rank) alone, so eviction or
  // degradation of one layer never shifts another task's Rng stream.
  // Backward-order priorities (higher slot first) mirror the order the
  // gradients become ready in a real backward pass: while the main thread
  // drives slot s's collective + decode, the engine's workers compress
  // slots s-1..0 — the host-side analogue of the paper's
  // compression/communication overlap.
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
  const std::size_t lead_rank = comm_.first_participant();
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
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t li = layer_indices_[s];
    const std::size_t n = layer_n[s];
    std::vector<StepGraph::TaskId> comp_ids;
    if (use_comp[s]) {
      for (std::size_t r = 0; r < world; ++r) {
        if (!comm_.is_participating(r)) continue;
        comp_ids.push_back(graph_.add_compute(
            "grad_compress" + std::to_string(s), static_cast<int>(s),
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
    // Exchange + decode + momentum + update for one slot: collectives and
    // weight writes stay on the optimizer thread. Weight updates never
    // touch gradient buffers, so in-flight compression of other layers
    // (each reading its own snapshots) is unaffected.
    const auto exch = graph_.add_main(
        "exchange" + std::to_string(s), static_cast<int>(s),
        [this, compressor, lr, s, li, n, world, active,
         use = use_comp[s]] {
          const obs::ObsHooks& hooks = comm_.obs();
          std::vector<float> averaged(n, 0.0F);
          bool averaged_ok = false;
          if (use) {
            for (std::size_t r = 0; r < world; ++r) {
              if (!comm_.is_participating(r)) continue;
              comp_bytes_ += send_payloads_[s][r].size();
            }
            averaged_ok = compressed_average(s, n, send_payloads_[s],
                                             *compressor, averaged);
            if (!averaged_ok) {
              ++comm_.recovery().fallback_steps;
              hooks.count("recovery.fallback_steps");
              hooks.instant(obs::kMainTrack, "sgd.layer_fallback",
                            "recovery");
              // The raw-gradient fallback below delivers the *full*
              // gradient; a stateful compressor rolls its per-stream
              // state back so the dropped payload's error is not
              // double-counted next step (DESIGN.md §17).
              for (std::size_t r = 0; r < world; ++r) {
                if (!comm_.is_participating(r)) continue;
                compressor->notify_fallback(
                    static_cast<std::uint64_t>(s) * world + r);
              }
            }
          }
          if (!averaged_ok) {
            // Plain ring allreduce of the raw gradients — the primary
            // path when no compressor is attached, and the recovery
            // fallback when decode retries were exhausted (the snapshots
            // are untouched by the compressed attempt, so the fallback
            // reduces the exact local gradients).
            std::vector<std::span<float>> views;
            views.reserve(world);
            for (auto& g : step_grads_[s]) views.push_back(g);
            comm_.allreduce_sum(views);
            const std::size_t lead = comm_.first_participant();
            for (std::size_t i = 0; i < n; ++i) {
              averaged[i] =
                  step_grads_[s][lead][i] / static_cast<float>(active);
            }
            comp_bytes_ += active * n * sizeof(float);
          }

          // Non-finite guard: a CRC-clean payload can still carry NaN/Inf
          // (an upstream arithmetic fault); never let it reach the
          // weights silently.
          if (!all_finite(averaged)) {
            if (policy_.enabled && policy_.skip_nonfinite_steps) {
              ++comm_.recovery().nonfinite_skips;
              hooks.count("recovery.nonfinite_skips");
              return;  // skip this layer's update; momentum untouched
            }
            // StepGraph::run reaps every in-flight job before rethrowing.
            throw NonFiniteError("DistSgd: non-finite averaged gradient");
          }

          auto& vel = velocity_[s];
          if (vel.size() != n) vel.assign(n, 0.0F);
          std::vector<nn::Layer*> targets;
          for (std::size_t r = 0; r < world; ++r) {
            if (comm_.is_participating(r) || comm_.is_rejoining(r)) {
              targets.push_back(&replicas_[r]->layer(li));
            }
          }
          // Momentum, then every replica's update, per element range.
          for_each_range(engine(), n, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
              vel[i] =
                  static_cast<float>(cfg_.momentum) * vel[i] + averaged[i];
            }
            for (nn::Layer* layer : targets) {
              apply_flat_update(*layer, vel, lr, lo, hi);
            }
          });
        },
        /*is_comm=*/true);
    for (const auto c : comp_ids) graph_.depends(exch, c);
    if (!rejoining.empty()) graph_.depends(exch, resync_ids[s]);
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
