#include "serve/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/thread_pool.h"
#include "e2e/solver.h"
#include "serve/bounded_queue.h"

namespace deltanc::serve {

namespace {

using Clock = std::chrono::steady_clock;
using Value = io::json::Value;
using Sink = SolveService::Sink;

/// One accepted request travelling through a shard queue.
struct Job {
  io::ParsedRequestLine line;
  Sink sink;
  /// Numeric "id" (fault delays match on it); NaN when non-numeric.
  double numeric_id = std::numeric_limits<double>::quiet_NaN();
  /// Requeues consumed so far (crashed-worker recovery).
  int retries = 0;
};

std::string format_ms(double ms) {
  if (ms == static_cast<double>(static_cast<long long>(ms))) {
    return std::to_string(static_cast<long long>(ms));
  }
  return std::to_string(ms);
}

}  // namespace

struct SolveService::Impl {
  // ----- per-shard state ---------------------------------------------------
  // Exactly one worker thread serves a shard at any time, so the shard
  // mutex only mediates worker vs. supervisor/reload/stats -- never
  // worker vs. worker.
  enum class SlotState { kIdle, kBusy, kCrashed };

  // A queue element; wraps Job so the queue type stays a regular
  // movable struct.
  struct JobBox {
    Job job;
  };

  // A crashed worker's orphan parked until its requeue backoff elapses
  // (the supervisor must keep ticking for the other shards meanwhile).
  struct DelayedRequeue {
    Clock::time_point ready_at;
    int shard;
    Job job;
  };

  struct Shard {
    explicit Shard(std::size_t queue_depth) : queue(queue_depth) {}

    BoundedQueue<JobBox> queue;

    std::mutex mu;  // guards everything below
    SlotState state = SlotState::kIdle;
    std::uint64_t generation = 0;  ///< bumped to abandon the incumbent
    std::uint64_t handled = 0;     ///< dequeues of the incumbent (kill match)
    bool has_inflight = false;
    Job inflight;                  ///< valid while kBusy / kCrashed
    Clock::time_point busy_since{};
    std::thread thread;

    // The warm layers.  `memory` holds raw answers (no kCorruptCache
    // recovery warning) of both kinds under their canonical keys (the
    // "kind" discriminator keeps scalar and profile keys disjoint),
    // FIFO-evicted under one per-worker cap; `disk` is this shard's
    // handle on the shared cache directory, swapped by reload()
    // (retired stats accumulate the traffic of replaced handles).
    std::map<std::string, io::Answer> memory;
    std::deque<std::string> memory_order;
    std::unique_ptr<io::ResultCache> disk;
    io::CacheStats retired{};
  };

  explicit Impl(const ServeOptions& opts)
      : options(opts),
        workers(opts.workers > 0
                    ? opts.workers
                    : static_cast<int>(ThreadPool::default_thread_count())),
        faults(opts.faults) {
    if (workers < 1) workers = 1;
    shards.reserve(static_cast<std::size_t>(workers));
    for (int s = 0; s < workers; ++s) {
      shards.push_back(std::make_unique<Shard>(
          options.queue_depth > 0 ? options.queue_depth : 1));
      open_disk(*shards.back(), s);
    }
    for (int s = 0; s < workers; ++s) {
      Shard& shard = *shards[s];
      shard.thread = std::thread([this, s, gen = shard.generation] {
        worker_loop(s, gen);
      });
    }
    supervisor = std::thread([this] { supervisor_loop(); });
  }

  ~Impl() { drain(); }

  void open_disk(Shard& shard, int index) {
    if (options.cache_dir.empty()) return;
    shard.disk = std::make_unique<io::ResultCache>(
        options.cache_dir, io::CacheShard{index, workers});
    // The full-disk simulation arms each shard's first stores; the
    // budget is a per-shard allowance so every worker exercises the
    // solve-through path, not just whichever shard stores first.
    if (faults.store_failure_budget() > 0) {
      shard.disk->fail_next_stores(faults.store_failure_budget());
    }
  }

  // ----- submission --------------------------------------------------------

  void submit(const std::string& line, Sink sink) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) return;
    bump(&ServeStats::received);
    Job job;
    try {
      job.line = io::parse_request_line(line, options.default_method);
    } catch (const io::PartialRequestError& e) {
      bump(&ServeStats::parse_errors);
      deliver(sink, io::make_error_response(e.id, e.what()));
      return;
    } catch (const std::exception& e) {
      bump(&ServeStats::parse_errors);
      deliver(sink, io::make_error_response(Value(), e.what()));
      return;
    }
    if (job.line.id.is_number()) job.numeric_id = job.line.id.as_number();
    job.sink = std::move(sink);
    if (draining.load(std::memory_order_acquire)) {
      reject_overload(job, "service is draining; request rejected");
      return;
    }
    const int shard =
        io::ResultCache::shard_of(job.line.key, workers);
    add_pending(1);
    Sink sink_copy = job.sink;       // survives the move into the queue
    const Value id_copy = job.line.id;
    if (!shards[static_cast<std::size_t>(shard)]->queue.try_push(
            JobBox{std::move(job)})) {
      add_pending(-1);
      Job rejected;
      rejected.line.id = id_copy;
      rejected.sink = std::move(sink_copy);
      reject_overload(rejected, "queue full; retry later");
    }
  }

  void reject_overload(const Job& job, const std::string& why) {
    bump(&ServeStats::overloads);
    deliver(job.sink, io::make_error_response(
                          job.line.id, why,
                          diag::SolveErrorKind::kOverload));
  }

  // ----- worker ------------------------------------------------------------

  void worker_loop(int index, std::uint64_t my_generation) {
    Shard& shard = *shards[static_cast<std::size_t>(index)];
    // Warm solver state: one Solver (workspace + eb-memo) per solve-
    // options flavor, owned by this thread.  A respawned worker starts
    // cold -- a crash loses its warm state by design.
    std::map<std::string, Solver> solvers;
    for (;;) {
      std::optional<JobBox> box = shard.queue.pop();
      if (!box.has_value()) return;  // queue closed and drained
      Job job = std::move(box->job);
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        if (shard.generation != my_generation) {
          // Abandoned while blocked in pop(): hand the job back so the
          // replacement answers it, then retire.
          (void)shard.queue.push_front(JobBox{std::move(job)});
          return;
        }
        shard.state = SlotState::kBusy;
        shard.inflight = job;
        shard.has_inflight = true;
        shard.busy_since = Clock::now();
        ++shard.handled;
        if (faults.should_kill(index, shard.handled)) {
          // Simulated crash: die with the request in flight.  The
          // supervisor detects kCrashed, requeues, and respawns.
          shard.state = SlotState::kCrashed;
          return;
        }
      }
      const double delay = faults.delay_ms_for(job.numeric_id);
      if (delay > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay));
      }
      Value response = handle(shard, solvers, job);
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        if (shard.generation != my_generation) {
          // The supervisor already answered kTimeout and moved on; this
          // thread is a zombie.  Discard the late result and exit.
          bump(&ServeStats::discarded);
          return;
        }
        shard.state = SlotState::kIdle;
        shard.has_inflight = false;
        shard.inflight = Job{};
      }
      deliver(job.sink, response);
      add_pending(-1);
    }
  }

  /// Answers one request of either kind: memory layer, then disk
  /// cache, then solve -- producing exactly the response bytes run_batch
  /// would.
  Value handle(Shard& shard, std::map<std::string, Solver>& solvers,
               const Job& job) {
    const bool with_tag = !options.cache_dir.empty();
    // Memory layer.  A hit reports "hit" when a disk cache is attached
    // (the batch baseline would hit disk) and "miss" otherwise (the
    // baseline would re-solve; results are deterministic, so bytes still
    // match).
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.memory.find(job.line.key);
      if (it != shard.memory.end()) {
        bump(&ServeStats::served);
        bump(&ServeStats::memory_hits);
        const io::CacheLookup outcome =
            with_tag ? io::CacheLookup::kHit : io::CacheLookup::kMiss;
        return io::make_ok_response(job.line.id, with_tag, outcome,
                                    it->second);
      }
    }
    // Disk layer.
    io::CacheLookup outcome = io::CacheLookup::kMiss;
    if (with_tag) {
      io::Answer cached;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        outcome = io::lookup_answer(*shard.disk, job.line, cached);
      }
      if ((outcome == io::CacheLookup::kHit ||
           outcome == io::CacheLookup::kStale) &&
          faults.corrupt_next_load()) {
        // Injected corruption: pretend the entry's bytes were
        // unreadable so the kCorrupt recovery path (re-solve + warning
        // + overwrite) runs under load on demand.
        outcome = io::CacheLookup::kCorrupt;
      }
      if (outcome == io::CacheLookup::kHit) {
        bump(&ServeStats::served);
        memory_insert(shard, job.line.key, cached);
        return io::make_ok_response(job.line.id, true, outcome, cached);
      }
    }
    // Solve with run_batch's classification (io::solve_request).
    // Failures are still ok=true responses carrying the +inf bound.
    bump(&ServeStats::solved);
    io::Answer answer = io::solve_request(
        solver_for(solvers, job.line.options), job.line);
    if (!answer.ok) {
      bump(&ServeStats::failed);
    } else {
      // Persist and warm before the kCorruptCache warning is applied
      // -- it describes how *this* response was obtained, not the
      // result.  A failed store is a counted solve-through; the service
      // keeps answering.
      bool stored = true;
      if (with_tag) {
        std::lock_guard<std::mutex> lock(shard.mu);
        stored = io::try_store_answer(*shard.disk, job.line.key, answer);
      }
      // After a failed store the memory layer must stay cold too: a
      // warm hit would report cache:"hit" for a key the disk never
      // recorded, diverging from a --batch run over the same directory
      // (which misses and re-solves).
      if (stored) memory_insert(shard, job.line.key, answer);
    }
    io::apply_cache_outcome(answer, outcome, job.line.key);
    return io::make_ok_response(job.line.id, with_tag, outcome, answer);
  }

  Solver& solver_for(std::map<std::string, Solver>& solvers,
                     const SolveOptions& options_in) {
    const std::string key = io::encode_solve_options(options_in).dump();
    const auto it = solvers.find(key);
    if (it != solvers.end()) return it->second;
    return solvers.emplace(key, Solver(options_in)).first->second;
  }

  /// Warms the memory layer; one FIFO over both kinds, capped at
  /// memory_entries per worker.
  void memory_insert(Shard& shard, const std::string& key,
                     const io::Answer& answer) {
    if (options.memory_entries == 0) return;
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.memory.emplace(key, answer).second) {
      shard.memory_order.push_back(key);
      while (shard.memory.size() > options.memory_entries) {
        shard.memory.erase(shard.memory_order.front());
        shard.memory_order.pop_front();
      }
    }
  }

  // ----- supervisor --------------------------------------------------------

  void supervisor_loop() {
    // Tick fast enough to keep timeout error well under the deadline
    // itself, but never busier than 1 kHz.
    double tick_ms = 10.0;
    if (options.deadline_ms > 0) {
      tick_ms = std::min(tick_ms, options.deadline_ms / 4.0);
    }
    if (tick_ms < 1.0) tick_ms = 1.0;
    while (!supervisor_stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(tick_ms));
      flush_delayed();
      for (int s = 0; s < workers; ++s) check_shard(s);
    }
  }

  void check_shard(int index) {
    Shard& shard = *shards[static_cast<std::size_t>(index)];
    Job orphan;
    bool crashed = false;
    bool timed_out = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.state == SlotState::kCrashed) {
        crashed = true;
        orphan = std::move(shard.inflight);
      } else if (shard.state == SlotState::kBusy &&
                 options.deadline_ms > 0 &&
                 std::chrono::duration<double, std::milli>(
                     Clock::now() - shard.busy_since)
                         .count() > options.deadline_ms) {
        timed_out = true;
        orphan = shard.inflight;  // the zombie still owns its copy
      } else {
        return;
      }
      // Either way the incumbent is done: bump the generation so a
      // late result (or a hung thread) can never race the replacement,
      // and reset the slot for it.
      ++shard.generation;
      shard.state = SlotState::kIdle;
      shard.has_inflight = false;
      shard.inflight = Job{};
      shard.handled = 0;
      if (crashed) {
        // A crashed worker's thread has returned; reap it here.  A
        // timed-out worker may still be running -- park it with the
        // zombies and join at drain.
        if (shard.thread.joinable()) shard.thread.join();
      } else {
        std::lock_guard<std::mutex> zlock(zombie_mu);
        zombies.push_back(std::move(shard.thread));
      }
      shard.thread = std::thread(
          [this, index, gen = shard.generation] { worker_loop(index, gen); });
      bump_respawns();
    }
    if (timed_out) {
      bump(&ServeStats::timeouts);
      deliver(orphan.sink,
              io::make_error_response(
                  orphan.line.id,
                  "request exceeded the " + format_ms(options.deadline_ms) +
                      " ms deadline",
                  diag::SolveErrorKind::kTimeout));
      add_pending(-1);
      return;
    }
    // Crashed: requeue with bounded retries, then classify.  Never a
    // silent drop -- the request is either retried or answered.
    bump(&ServeStats::worker_losses);
    if (orphan.retries < options.max_requeues) {
      const double backoff =
          options.requeue_backoff_ms *
          static_cast<double>(1 << std::min(orphan.retries, 3));
      ++orphan.retries;
      bump(&ServeStats::requeues);
      if (backoff > 0) {
        // Never sleep the backoff on this thread: the supervisor is
        // also every other shard's deadline/crash watchdog.  Park the
        // job with a not-before timestamp; supervisor_loop's next
        // ticks flush it once the backoff has elapsed.
        std::lock_guard<std::mutex> lock(delayed_mu);
        delayed.push_back(DelayedRequeue{
            Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(backoff)),
            index, std::move(orphan)});
        return;
      }
      if (requeue_now(index, std::move(orphan))) return;
      // Queue already closed (drain raced the respawn): requeue_now
      // answered the classified error; nothing left to do.
      return;
    }
    bump(&ServeStats::exhausted);
    deliver(orphan.sink,
            io::make_error_response(
                orphan.line.id,
                "worker crashed while handling this request; " +
                    std::to_string(orphan.retries) + " retries exhausted",
                diag::SolveErrorKind::kWorkerLost));
    add_pending(-1);
  }

  /// Pushes a requeued job back onto its shard.  When the queue is
  /// already closed (drain raced the respawn), answers the classified
  /// kWorkerLost error instead of dropping the request.  Returns true
  /// on a successful requeue.
  bool requeue_now(int index, Job job) {
    const Value id = job.line.id;
    const Sink sink = job.sink;  // survives the move into the queue
    const int retries = job.retries;
    if (shards[static_cast<std::size_t>(index)]->queue.push_front(
            JobBox{std::move(job)})) {
      return true;
    }
    bump(&ServeStats::exhausted);
    deliver(sink, io::make_error_response(
                      id,
                      "worker crashed while handling this request; " +
                          std::to_string(retries) + " retries exhausted",
                      diag::SolveErrorKind::kWorkerLost));
    add_pending(-1);
    return false;
  }

  /// Requeues every parked job whose backoff has elapsed.
  void flush_delayed() {
    std::vector<DelayedRequeue> ready;
    {
      std::lock_guard<std::mutex> lock(delayed_mu);
      const Clock::time_point now = Clock::now();
      for (auto it = delayed.begin(); it != delayed.end();) {
        if (it->ready_at <= now) {
          ready.push_back(std::move(*it));
          it = delayed.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (DelayedRequeue& d : ready) (void)requeue_now(d.shard, std::move(d.job));
  }

  // ----- lifecycle ---------------------------------------------------------

  void reload() {
    for (int s = 0; s < workers; ++s) {
      Shard& shard = *shards[static_cast<std::size_t>(s)];
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.memory.clear();
      shard.memory_order.clear();
      if (shard.disk != nullptr) {
        shard.retired += shard.disk->stats();
        shard.disk.reset();  // release before reopening the same dir
      }
      if (!options.cache_dir.empty()) {
        shard.disk = std::make_unique<io::ResultCache>(
            options.cache_dir, io::CacheShard{s, workers});
        // Deliberately no fail_next_stores re-arm: the fault budget is
        // per service lifetime, not per reload.
      }
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      ++totals.reloads;
    }
  }

  void drain() {
    bool expected = false;
    if (!drained.compare_exchange_strong(expected, true)) return;
    draining.store(true, std::memory_order_release);
    {
      // Every accepted request is either queued, in flight, or being
      // requeued by the supervisor; pending covers all three.
      std::unique_lock<std::mutex> lock(pending_mu);
      pending_cv.wait(lock, [this] { return pending == 0; });
    }
    for (auto& shard : shards) shard->queue.close();
    for (auto& shard : shards) {
      std::thread t;
      {
        std::lock_guard<std::mutex> lock(shard->mu);
        t = std::move(shard->thread);
      }
      if (t.joinable()) t.join();
    }
    supervisor_stop.store(true, std::memory_order_release);
    if (supervisor.joinable()) supervisor.join();
    std::lock_guard<std::mutex> zlock(zombie_mu);
    for (std::thread& z : zombies) {
      if (z.joinable()) z.join();
    }
    zombies.clear();
  }

  [[nodiscard]] ServeStats stats() const {
    ServeStats out;
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      out = totals;
    }
    for (const auto& shard : shards) {
      std::lock_guard<std::mutex> lock(shard->mu);
      out.cache += shard->retired;
      if (shard->disk != nullptr) out.cache += shard->disk->stats();
    }
    return out;
  }

  // ----- plumbing ----------------------------------------------------------

  void deliver(const Sink& sink, const Value& response) {
    try {
      if (sink) sink(response.dump());
    } catch (...) {
      // The client hung up mid-response; the request still counts as
      // answered (we will never get another chance to answer it).
      bump(&ServeStats::dropped);
    }
    bump(&ServeStats::answered);
  }

  void bump(std::int64_t ServeStats::* counter) {
    std::lock_guard<std::mutex> lock(stats_mu);
    ++(totals.*counter);
  }

  void bump_respawns() {
    std::lock_guard<std::mutex> lock(stats_mu);
    ++totals.respawns;
  }

  void add_pending(std::int64_t delta) {
    std::lock_guard<std::mutex> lock(pending_mu);
    pending += delta;
    if (pending == 0) pending_cv.notify_all();
  }

  ServeOptions options;
  int workers;
  FaultClock faults;
  std::vector<std::unique_ptr<Shard>> shards;
  std::thread supervisor;
  std::atomic<bool> supervisor_stop{false};
  std::atomic<bool> draining{false};
  std::atomic<bool> drained{false};

  mutable std::mutex stats_mu;
  ServeStats totals;  // guarded by stats_mu (cache field unused here)

  std::mutex pending_mu;
  std::condition_variable pending_cv;
  std::int64_t pending = 0;  // accepted-but-unanswered, guarded above
  std::mutex zombie_mu;
  std::vector<std::thread> zombies;  // timed-out workers, joined at drain
  std::mutex delayed_mu;
  std::vector<DelayedRequeue> delayed;  // orphans waiting out their backoff
};

SolveService::SolveService(const ServeOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

SolveService::~SolveService() = default;

int SolveService::workers() const noexcept { return impl_->workers; }

void SolveService::submit(const std::string& line, Sink sink) {
  impl_->submit(line, std::move(sink));
}

void SolveService::reload() { impl_->reload(); }

void SolveService::drain() { impl_->drain(); }

ServeStats SolveService::stats() const { return impl_->stats(); }

}  // namespace deltanc::serve
