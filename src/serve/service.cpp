#include "serve/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
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
using Sink = SolveService::Sink;

/// One accepted request travelling through a shard queue.
struct Job {
  io::ParsedRequestLine line;
  Sink sink;
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
  // One incumbent worker thread serves a shard; the shard mutex
  // mediates it vs. the supervisor/reload/stats and vs. an abandoned
  // (timed-out) predecessor still finishing its solve.
  struct Shard {
    explicit Shard(std::size_t queue_depth) : queue(queue_depth) {}

    BoundedQueue<Job> queue;

    std::mutex mu;  // guards everything below
    bool busy = false;             ///< the incumbent is answering a job
    std::uint64_t generation = 0;  ///< bumped to abandon the incumbent
    // The in-flight job's id and sink, parked while busy: whoever
    // answers it (the worker, or the supervisor on a timeout) takes the
    // sink.
    std::string inflight_id;
    Sink inflight_sink;
    Clock::time_point busy_since{};
    std::thread thread;

    // The warm layers.  `memory` holds raw answers (no kCorruptCache
    // recovery warning) of both kinds under their canonical keys (the
    // "kind" discriminator keeps scalar and profile keys disjoint),
    // FIFO-evicted under one per-worker cap; a hit copies the answer's
    // payload_json into the response; `disk` is this shard's
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
                    : static_cast<int>(default_thread_count())) {
    if (workers < 1) workers = 1;
    shards.reserve(static_cast<std::size_t>(workers));
    for (int s = 0; s < workers; ++s) {
      shards.push_back(std::make_unique<Shard>(
          options.queue_depth > 0 ? options.queue_depth : 1));
      open_disk(*shards.back());
    }
    for (int s = 0; s < workers; ++s) {
      Shard& shard = *shards[s];
      shard.thread = std::thread([this, s, gen = shard.generation] {
        worker_loop(s, gen);
      });
    }
    // A deadline overrun is the one failure the supervisor handles.
    if (options.deadline_ms > 0) {
      supervisor = std::thread([this] { supervisor_loop(); });
    }
  }

  ~Impl() { drain(); }

  void open_disk(Shard& shard) {
    if (options.cache_dir.empty()) return;
    shard.disk = std::make_unique<io::ResultCache>(options.cache_dir);
    // The full-disk simulation arms each shard's first stores; the
    // budget is a per-shard allowance so every worker exercises the
    // solve-through path, not just whichever shard stores first.
    if (options.faults.store_failures > 0) {
      shard.disk->fail_next_stores(options.faults.store_failures);
    }
  }

  // ----- submission --------------------------------------------------------

  void submit(const std::string& line, Sink sink) {
    if (io::is_blank_request_line(line)) return;
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
      deliver(sink, io::make_error_response("null", e.what()));
      return;
    }
    job.sink = std::move(sink);
    if (draining.load(std::memory_order_acquire)) {
      reject_overload(job, "service is draining; request rejected");
      return;
    }
    const int shard = io::ResultCache::shard_of(job.line.key_hash, workers);
    add_pending(1);
    // A refused push leaves the job with us, so it is answered here.
    if (!shards[static_cast<std::size_t>(shard)]->queue.try_push(job)) {
      add_pending(-1);
      reject_overload(job, "queue full; retry later");
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
    // Warm solver state: one Solver (and its workspace) per solve-
    // options flavor, owned by this thread.  A replacement worker starts
    // cold -- an abandoned worker's warm state goes with it.
    std::map<std::string, Solver> solvers;
    for (;;) {
      // Only the incumbent pops: the supervisor abandons busy workers
      // alone, and an abandoned worker exits before popping again.
      std::optional<Job> next = shard.queue.pop();
      if (!next.has_value()) return;  // queue closed and drained
      Job job = std::move(*next);
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.busy = true;
        shard.inflight_id = job.line.id;
        shard.inflight_sink = std::move(job.sink);
        shard.busy_since = Clock::now();
      }
      const double delay = options.faults.delay_ms_for(job.line.id);
      if (delay > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay));
      }
      io::ResponseLine response = handle(shard, solvers, job.line);
      Sink sink;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        if (shard.generation != my_generation) {
          // The supervisor already answered kTimeout and moved on; this
          // thread is a zombie.  Discard the late result and exit.
          bump(&ServeStats::discarded);
          return;
        }
        shard.busy = false;
        sink = std::move(shard.inflight_sink);
      }
      deliver(sink, response);
      add_pending(-1);
    }
  }

  /// Answers one request of either kind: memory layer, then disk
  /// cache, then solve -- producing exactly the response bytes run_batch
  /// would.
  io::ResponseLine handle(Shard& shard, std::map<std::string, Solver>& solvers,
                          const io::ParsedRequestLine& line) {
    const bool with_tag = !options.cache_dir.empty();
    // Memory layer.  A hit reports "hit" when a disk cache is attached
    // (the batch baseline would hit disk) and "miss" otherwise (the
    // baseline would re-solve; results are deterministic, so bytes still
    // match).
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.memory.find(line.key);
      if (it != shard.memory.end()) {
        bump(&ServeStats::served);
        bump(&ServeStats::memory_hits);
        const io::CacheLookup outcome =
            with_tag ? io::CacheLookup::kHit : io::CacheLookup::kMiss;
        return io::make_ok_response(line.id, with_tag, outcome, it->second);
      }
    }
    // Disk layer.
    io::CacheLookup outcome = io::CacheLookup::kMiss;
    if (with_tag) {
      io::Answer cached;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        outcome = io::lookup_answer(*shard.disk, line, cached);
      }
      if (outcome == io::CacheLookup::kHit) {
        bump(&ServeStats::served);
        memory_insert(shard, line.key, cached);
        return io::make_ok_response(line.id, true, outcome, cached);
      }
    }
    // Solve with run_batch's classification (io::solve_request).
    // Failures are still ok=true responses carrying the +inf bound.
    bump(&ServeStats::solved);
    io::Answer answer = io::solve_request(
        solver_for(solvers, line.options), line);
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
        stored = io::try_store_answer(*shard.disk, line, answer);
      }
      // After a failed store the memory layer must stay cold too: a
      // warm hit would report cache:"hit" for a key the disk never
      // recorded, diverging from a --batch run over the same directory
      // (which misses and re-solves).
      if (stored) memory_insert(shard, line.key, answer);
    }
    io::apply_cache_outcome(answer, outcome, line.key);
    return io::make_ok_response(line.id, with_tag, outcome, answer);
  }

  Solver& solver_for(std::map<std::string, Solver>& solvers,
                     const SolveOptions& options_in) {
    std::string key;
    io::append_json(key, options_in);
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
    const double tick_ms = std::clamp(options.deadline_ms / 4.0, 1.0, 10.0);
    while (!supervisor_stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(tick_ms));
      for (int s = 0; s < workers; ++s) check_shard(s);
    }
  }

  /// Answers kTimeout for a request that overran the deadline, abandons
  /// its worker (the zombie discards its late result and exits) and
  /// spawns the replacement that serves the rest of the shard's queue.
  void check_shard(int index) {
    Shard& shard = *shards[static_cast<std::size_t>(index)];
    std::string id;
    Sink sink;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (!shard.busy || std::chrono::duration<double, std::milli>(
                             Clock::now() - shard.busy_since)
                                 .count() <= options.deadline_ms) {
        return;
      }
      // Bump the generation so the late result can never race the
      // replacement; the zombie keeps its own job.
      ++shard.generation;
      shard.busy = false;
      id = std::move(shard.inflight_id);
      sink = std::move(shard.inflight_sink);
      {
        // It may still be running: join it at drain.
        std::lock_guard<std::mutex> zlock(zombie_mu);
        zombies.push_back(std::move(shard.thread));
      }
      shard.thread = std::thread(
          [this, index, gen = shard.generation] { worker_loop(index, gen); });
    }
    bump(&ServeStats::respawns);
    bump(&ServeStats::timeouts);
    deliver(sink, io::make_error_response(
                      id,
                      "request exceeded the " +
                          format_ms(options.deadline_ms) + " ms deadline",
                      diag::SolveErrorKind::kTimeout));
    add_pending(-1);
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
        shard.disk = std::make_unique<io::ResultCache>(options.cache_dir);
        // Deliberately no fail_next_stores re-arm: the fault budget is
        // per service lifetime, not per reload.
      }
    }
    bump(&ServeStats::reloads);
  }

  void drain() {
    bool expected = false;
    if (!drained.compare_exchange_strong(expected, true)) return;
    draining.store(true, std::memory_order_release);
    {
      // Every accepted request is either queued or in flight; pending
      // covers both.
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

  void deliver(const Sink& sink, const io::ResponseLine& response) {
    try {
      if (sink) sink(response.text);
    } catch (...) {
      // The client hung up mid-response; the request still counts as
      // answered (we will never get another chance to answer it).
      bump(&ServeStats::dropped);
    }
    bump(&ServeStats::answered);
  }

  template <typename Counter>
  void bump(Counter ServeStats::* counter) {
    std::lock_guard<std::mutex> lock(stats_mu);
    ++(totals.*counter);
  }

  void add_pending(std::int64_t delta) {
    std::lock_guard<std::mutex> lock(pending_mu);
    pending += delta;
    if (pending == 0) pending_cv.notify_all();
  }

  ServeOptions options;
  int workers;
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
