// The library's one fan-out primitive.  Every parallel workload is a set
// of independent tasks with a result slot each: the chains of a sweep
// grid (core/sweep.h) and the cache misses of a batch (io/batch.h).
// parallel_for runs such a set on a few workers that claim task indices
// from one shared atomic cursor and are joined before it returns, so a
// task writes its own slot without locking and the results come back in
// input order whichever worker finished first.
//
// Bodies must not throw: wrap fallible work in try/catch and record the
// failure in the task's own slot (SweepRunner and run_batch do exactly
// that).  ProgressCounter keeps the shared progress(done, total)
// contract -- serialized calls, `done` strictly increasing 1..total --
// in one place for every caller.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace deltanc {

/// The worker count used when none is requested: the DELTANC_THREADS
/// environment variable if set to a positive integer, otherwise
/// std::thread::hardware_concurrency() (minimum 1).  The override must
/// be the *entire* value -- trailing garbage ("2x", "4 threads") is
/// rejected rather than silently parsed as its numeric prefix.
[[nodiscard]] inline unsigned default_thread_count() {
  if (const char* env = std::getenv("DELTANC_THREADS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && n > 0) {
      return static_cast<unsigned>(n);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// The worker count for `n_tasks` tasks: `requested` (0 means
/// default_thread_count()) clamped to the task count -- never an idle
/// worker -- and never below 1.
[[nodiscard]] inline unsigned resolve_threads(unsigned requested,
                                              std::size_t n_tasks) {
  unsigned n = requested > 0 ? requested : default_thread_count();
  if (n > n_tasks) n = static_cast<unsigned>(n_tasks);
  return n > 0 ? n : 1;
}

/// Runs body(i) exactly once for every i in [0, n) on
/// resolve_threads(threads, n) workers (the calling thread is one of
/// them) and returns once every call has finished.
template <typename Body>
void parallel_for(std::size_t n, unsigned threads, Body&& body) {
  if (n == 0) return;
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&] {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < n; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  };
  std::vector<std::thread> helpers;
  const unsigned workers = resolve_threads(threads, n);
  helpers.reserve(workers - 1);
  for (unsigned t = 1; t < workers; ++t) helpers.emplace_back(worker);
  worker();
  for (std::thread& h : helpers) h.join();
}

/// Serializes a progress(done, total) callback across workers: every
/// tick() counts one finished unit and calls the callback under one
/// lock, so `done` arrives strictly increasing from 1 to `total` and the
/// callback need not be thread-safe.  An empty callback makes tick() a
/// no-op.
class ProgressCounter {
 public:
  using Callback = std::function<void(std::size_t done, std::size_t total)>;

  ProgressCounter(Callback callback, std::size_t total)
      : callback_(std::move(callback)), total_(total) {}

  void tick() {
    if (!callback_) return;
    std::lock_guard<std::mutex> lock(mu_);
    callback_(++done_, total_);
  }

 private:
  const Callback callback_;
  const std::size_t total_;
  std::mutex mu_;
  std::size_t done_ = 0;  // guarded by mu_
};

}  // namespace deltanc
