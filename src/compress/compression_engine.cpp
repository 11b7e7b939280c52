#include "src/compress/compression_engine.hpp"

#include "src/common/thread_pool.hpp"

#include <chrono>
#include <utility>

namespace compso::compress {

CompressionEngine::CompressionEngine(std::size_t threads) {
  if (threads > 0) pool_ = std::make_unique<common::ThreadPool>(threads);
}

CompressionEngine::~CompressionEngine() {
  // The pool destructor drains every queued job, so outstanding tickets
  // complete (their results are simply never observed).
}

std::size_t CompressionEngine::thread_count() const noexcept {
  return pool_ ? pool_->size() : 0;
}

std::function<void()> CompressionEngine::instrument(
    std::function<void()> job, std::string name) {
  if (!obs_.enabled()) return job;
  const std::uint64_t task_id = obs_task_seq_++;
  obs_.count("engine.tasks");
  if (obs_.tracer == nullptr) return job;
  const auto track =
      obs::kTaskTrackBase + static_cast<std::uint32_t>(task_id);
  if (obs_.deterministic_time()) {
    // Deterministic clock: stamp the span here, at submission on the
    // optimizer thread. Simulated time never advances inside a task, so
    // the zero duration is exact — and no worker ever races the clock.
    obs_.complete(track, std::move(name), "engine",
                  obs_.tracer->now_rel_ns(), 0, {{"task", task_id}});
    return job;
  }
  // Wall clock: time the job around its execution on whichever worker
  // picks it up. Record the span even when the job throws, so traces of
  // fault-injected runs still show the failed task.
  obs::Tracer* tracer = obs_.tracer;
  return [tracer, track, task_id, name = std::move(name),
          job = std::move(job)]() {
    const std::uint64_t start = tracer->now_rel_ns();
    const auto record = [&] {
      const std::uint64_t end = tracer->now_rel_ns();
      tracer->complete(track, name, "engine", start,
                       end >= start ? end - start : 0, {{"task", task_id}});
    };
    try {
      job();
    } catch (...) {
      record();
      throw;
    }
    record();
  };
}

void CompressionEngine::Claimable::run_here() {
  if (taken.exchange(true, std::memory_order_acq_rel)) return;
  ran_here = true;
  try {
    common::ThreadPool::run_as_worker(job);
  } catch (...) {
    error = std::current_exception();
  }
}

bool CompressionEngine::Claimable::finished() const {
  return ran_here || !done.valid() ||
         done.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

void CompressionEngine::Claimable::settle() {
  if (ran_here) {
    if (error) std::rethrow_exception(std::exchange(error, {}));
    return;
  }
  if (done.valid()) done.get();
}

std::shared_ptr<CompressionEngine::Claimable> CompressionEngine::enqueue(
    std::function<void()> job) {
  auto c = std::make_shared<Claimable>();
  c->job = std::move(job);
  // Weak: the engine may drop a job the optimizer thread already ran
  // while its queued copy still waits for a worker.
  c->done = pool_->submit([weak = std::weak_ptr<Claimable>(c)] {
    const auto c = weak.lock();
    if (c && !c->taken.exchange(true, std::memory_order_acq_rel)) c->job();
  });
  return c;
}

CompressionEngine::Ticket CompressionEngine::submit(
    std::function<void()> job, std::string name) {
  const Ticket t = tickets_++;
  job = instrument(std::move(job), std::move(name));
  if (pool_) {
    claims_.push_back(enqueue(std::move(job)));
  } else {
    // Serial mode runs inline but defers the exception to wait(), so call
    // sites behave identically in both modes.
    std::exception_ptr err;
    try {
      job();
    } catch (...) {
      err = std::current_exception();
    }
    inline_errors_.push_back(err);
  }
  return t;
}

void CompressionEngine::wait(Ticket ticket) {
  if (pool_) {
    if (ticket >= claims_.size()) return;
    Claimable& c = *claims_[ticket];
    c.run_here();
    // A worker still runs it: run queued jobs here, oldest first, rather
    // than sleep while the other workers wake up.
    for (std::size_t i = 0; i < claims_.size() && !c.finished(); ++i) {
      claims_[i]->run_here();
    }
    c.settle();
    return;
  }
  if (ticket < inline_errors_.size() && inline_errors_[ticket]) {
    const std::exception_ptr err = std::exchange(inline_errors_[ticket], {});
    std::rethrow_exception(err);
  }
}

void CompressionEngine::wait_all() {
  std::exception_ptr first;
  if (pool_) {
    for (const auto& c : claims_) c->run_here();
    for (const auto& c : claims_) {
      try {
        c->settle();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    claims_.clear();
  } else {
    for (auto& err : inline_errors_) {
      if (err && !first) first = std::exchange(err, {});
    }
    inline_errors_.clear();
  }
  tickets_ = 0;
  if (first) std::rethrow_exception(first);
}

void CompressionEngine::run_batch(std::vector<std::function<void()>>&& jobs) {
  std::exception_ptr first;
  if (obs_.enabled()) {
    for (auto& job : jobs) job = instrument(std::move(job));
  }
  if (pool_) {
    // The caller works through the batch in order alongside the workers,
    // taking every job none of them has claimed yet.
    std::vector<std::shared_ptr<Claimable>> batch;
    batch.reserve(jobs.size());
    for (auto& job : jobs) batch.push_back(enqueue(std::move(job)));
    for (const auto& c : batch) c->run_here();
    for (const auto& c : batch) {
      try {
        c->settle();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
  } else {
    for (auto& job : jobs) {
      try {
        job();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
  }
  jobs.clear();
  if (first) std::rethrow_exception(first);
}

}  // namespace compso::compress
