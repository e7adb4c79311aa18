// Shared pieces of the deltanc benchmark harness: the run context, the
// seeded input generator, the span recorder, percentile helpers, and the
// per-workload report the runner script (perfbench/run.py) turns into the
// final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "io/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// What one harness invocation was asked to do.
struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measured time of the run
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  std::filesystem::path work;  ///< working directory (inside the checkout)
  std::filesystem::path cli;   ///< the deltanc_cli binary (serve layer)
  int threads = 1;             ///< solver threads (nproc, capped)
};

/// One run's outcome.  `metrics` are plain numbers keyed by the names in
/// BENCHMARK.json; `exact` are the counts that must repeat bit-for-bit
/// for a fixed seed (run.py compares them across runs).
struct Report {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> problems;  ///< one line per failed check
  std::map<std::string, double> metrics;
  std::map<std::string, double> exact;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (problems.size() < 20) problems.push_back(what);
    }
  }
};

/// splitmix64: a tiny deterministic generator (the same seed gives the
/// same inputs on every platform, unlike the std:: distributions).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n);
  /// Exponential with the given rate.
  double exponential(double rate);

 private:
  std::uint64_t state_;
};

/// Zipf-Mandelbrot over ranks [0, n): rank r drawn with probability
/// ~ 1/(r + 1 + q)^s (q = 0 is plain Zipf; q > 0 flattens the head).
class Zipf {
 public:
  Zipf(std::size_t n, double s, double q = 0.0);
  std::size_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Spans recorded around the harness's own calls into each layer.  Kept
/// in memory and written as JSONL at exit; single-threaded (the harness
/// records only from its main thread).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::int64_t request = -1;  ///< request id, -1 = none
  };

  bool enabled = false;

  /// Opens a span (a no-op returning -1 when disabled).
  std::int64_t begin(const char* name, std::int64_t parent = -1,
                     std::int64_t request = -1);
  void end(std::int64_t span);
  /// Records an already-measured interval (e.g. a response time taken on
  /// another thread and handed back).
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t parent, std::int64_t request);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span named `name` (duration minus its direct
  /// children's), in milliseconds.
  [[nodiscard]] std::vector<double> self_ms(const std::string& name) const;
  void write_jsonl(const std::filesystem::path& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& tracer, const char* name, std::int64_t parent = -1,
         std::int64_t request = -1)
      : tracer_(tracer), id_(tracer.begin(name, parent, request)) {}
  ~Scoped() { tracer_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

std::int64_t now_ns();
double ms_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point t0);

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double sum(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// The median over consecutive windows of `window` values of `reduce`
/// applied to each window; the last window also takes a remainder shorter
/// than a window, and a sample shorter than one window is one window.  A
/// stall of a shared box moves one window, not the figure.
double windowed_median(
    const std::vector<double>& values, std::size_t window,
    const std::function<double(const std::vector<double>&)>& reduce);

/// Peak resident set (VmHWM) of this process in MB.
double peak_rss_mb();

/// Canonical form of a batch/serve response for comparisons across cache
/// states: drops the "cache" tag and zeroes the per-answer outcome
/// counters (cache_hits/misses/stale) and the wall-clock scan_ms /
/// refine_ms in every stats object; with `drop_id` also the echoed id.
/// Throws on unparseable input.
std::string normalize_response(const std::string& line, bool drop_id = false);

/// A batch/serve request line without its "id": a scalar solve, or a
/// 16-level warm profile when `profile`.
struct Request {
  std::string payload;  ///< compact JSON object, no "id"
  std::string key;      ///< its canonical cache key
};

inline constexpr int kRequestHops[] = {2, 3, 5, 8, 10, 15, 20};
inline constexpr const char* kRequestSchedulers[] = {"fifo", "bmux", "edf",
                                                      "gps:1,1"};
inline constexpr double kRequestEps[] = {1e-9, 1e-6, 1e-3};

/// One request of the given path length, scheduler and eps: a scalar
/// solve, or with `profile` a 16-level warm profile (1e-9 .. 1e-3).  The
/// through load (10-20 %) and cross load (10-60 %) come from `rng`.
Request make_request(Rng& rng, int hops, const char* scheduler, double eps,
                     bool profile);

/// `n` requests with pairwise distinct cache keys, a `profile_share` of
/// them profiles, everything drawn from the seeded generator: path
/// lengths from kRequestHops (at most `max_hops`), schedulers, eps.
std::vector<Request> make_requests(Rng& rng, std::size_t n,
                                   double profile_share, int max_hops = 20);

/// `payload` with `"id": id` spliced in before the closing brace.
std::string with_id(const std::string& payload, long long id);

/// Writes `text` to `path` (truncating).
void write_file(const std::filesystem::path& path, const std::string& text);
std::string read_file(const std::filesystem::path& path);

Report run_figures(const Context& ctx);
Report run_batch_warm(const Context& ctx);
/// The serve layer's per-layer metrics (part of batch_warm's traced run).
Report run_serve_layer(const Context& ctx);

}  // namespace perfbench
