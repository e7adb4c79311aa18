// Workload `batch_warm`: io::run_batch over a cache directory that the
// set-up filled with a cold run_batch of the same seeded mix of scalar
// and 16-level profile requests, so the timed phase is all disk hits.
// Parse, key, lookup, decode and encode do all the work and the solver
// none; profile responses are ~16x larger than scalar ones, so codec cost
// shows.  The set-up *is* the cold batch (solve fan-out, miss path with
// its legacy-key probes, stores), so the cold path is gated by setup_s.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <iterator>
#include <set>
#include <sstream>

#include "common.h"
#include "io/batch.h"

namespace perfbench {

namespace {

using namespace deltanc;
namespace fs = std::filesystem;

constexpr std::size_t kRequests = 96;
constexpr std::size_t kChunk = 8;  ///< request lines per run_batch call
constexpr std::size_t kProfilesPerChunk = 2;
constexpr int kSetups = 5;

/// `n` requests whose path lengths, schedulers and eps cycle through
/// every combination in a fixed order, so every seed asks for the same
/// kinds of work and only the loads differ.
std::vector<Request> balanced_requests(Rng& rng, std::size_t n, bool profile) {
  constexpr std::size_t kHopKinds = std::size(kRequestHops);
  std::vector<Request> out;
  std::set<std::string> keys;
  while (out.size() < n) {
    const std::size_t slot = out.size();
    Request req = make_request(rng, kRequestHops[slot % kHopKinds],
                               kRequestSchedulers[slot / kHopKinds % 4],
                               kRequestEps[slot / (kHopKinds * 4) % 3], profile);
    if (keys.insert(req.key).second) out.push_back(std::move(req));
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Runs one batch over `text` and returns its output (and wall time).
std::string batch(const std::string& text, io::ResultCache& cache, int threads,
                  double& ms, io::BatchSummary* summary = nullptr) {
  std::istringstream in(text);
  std::ostringstream out;
  io::BatchOptions options;
  options.threads = threads;
  options.cache = &cache;
  const auto t0 = Clock::now();
  const io::BatchSummary s = io::run_batch(in, out, options);
  ms = ms_between(t0, Clock::now());
  if (summary != nullptr) *summary = s;
  return out.str();
}

/// Alters one digit of the first cached delay in `dir`.
void doctor_cache(const fs::path& dir) {
  std::vector<fs::path> entries;
  for (const auto& e : fs::directory_iterator(dir)) entries.push_back(e.path());
  std::sort(entries.begin(), entries.end());
  for (const fs::path& p : entries) {
    std::string text = read_file(p);
    const std::size_t at = text.find("\"delay_ms\":");
    if (at == std::string::npos) continue;
    std::size_t i = at + 11;
    while (i < text.size() && !std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
    ++i;  // keep the leading digit; change a later one
    while (i < text.size() && !std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
    if (i >= text.size()) continue;
    text[i] = text[i] == '9' ? '1' : static_cast<char>(text[i] + 1);
    write_file(p, text);
    return;
  }
}

/// One chunk of the timed phase: its request text and expected output.
struct Chunk {
  std::string text;
  std::vector<std::string> expected;  ///< normalized cold responses
  std::string warm;                   ///< first verified warm output
};

/// The timed calls (every one returns kChunk responses).
struct Loop {
  std::vector<double> call_ms;    ///< untraced calls
  std::vector<int> call_cpu;      ///< the CPU each untraced call ran on
  std::vector<double> traced_ms;  ///< traced calls
  io::CacheStats cache;
};

/// Cycles the chunks through run_batch until `seconds` elapse (and at
/// least twice); every response is checked outside the timed region.
/// With `tracer` enabled every other cycle runs traced, so the traced and
/// the untraced calls interleave and see the same box.
void timed_loop(std::vector<Chunk>& chunks, io::ResultCache& cache,
                const Context& ctx, double seconds, Tracer& tracer,
                Loop& loop, Report& report) {
  Tracer off;
  const io::CacheStats before = cache.stats();
  // The calls move to the next CPU of the allowed set every 100 calls, so
  // one run samples every CPU of a shared box alike instead of reporting
  // whichever one it happened to land on.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  const auto start = Clock::now();
  for (std::size_t k = 0;
       seconds_since(start) < seconds || k < 2 * chunks.size(); ++k) {
    if (k % 100 == 0 && cpus.size() > 1) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[(k / 100) % cpus.size()], &one);
      (void)::sched_setaffinity(0, sizeof one, &one);
    }
    Chunk& chunk = chunks[k % chunks.size()];
    const bool traced = tracer.enabled && (k / chunks.size()) % 2 == 1;
    double ms = 0.0;
    std::string out;
    {
      const Scoped span(traced ? tracer : off, "io.run_batch", -1,
                        static_cast<std::int64_t>(k));
      out = batch(chunk.text, cache, ctx.threads, ms);
    }
    if (traced) {
      loop.traced_ms.push_back(ms);
    } else {
      loop.call_ms.push_back(ms);
      loop.call_cpu.push_back(cpus.size() > 1 ? cpus[(k / 100) % cpus.size()] : 0);
    }
    if (chunk.warm.empty()) {
      const std::vector<std::string> lines = split_lines(out);
      bool same = lines.size() == chunk.expected.size();
      for (std::size_t i = 0; same && i < lines.size(); ++i) {
        same = normalize_response(lines[i]) == chunk.expected[i] &&
               lines[i].find("\"cache\":\"hit\"") != std::string::npos;
      }
      if (same) chunk.warm = out;
      report.check(same, "warm batch response differs from the cold one");
    } else {
      report.check(out == chunk.warm,
                   "warm batch response differs from the cold one");
    }
  }
  if (cpus.size() > 1) (void)::sched_setaffinity(0, sizeof allowed, &allowed);
  const io::CacheStats& after = cache.stats();
  loop.cache.hits = after.hits - before.hits;
  loop.cache.misses = after.misses - before.misses;
  loop.cache.stale = after.stale - before.stale;
  loop.cache.corrupt = after.corrupt - before.corrupt;
}

/// Self-test of the answer check: against a copy of the warm cache with
/// one cached digit altered, the check must flag at least one response.
void check_doctored(const std::vector<Chunk>& chunks, const fs::path& dir,
                    const Context& ctx, Report& report) {
  const fs::path doctored = ctx.work / "cache-doctored";
  fs::remove_all(doctored);
  fs::copy(dir, doctored);
  doctor_cache(doctored);
  io::ResultCache cache(doctored);
  bool caught = false;
  for (const Chunk& chunk : chunks) {
    double ms = 0.0;
    const std::vector<std::string> lines =
        split_lines(batch(chunk.text, cache, ctx.threads, ms));
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (normalize_response(lines[i]) != chunk.expected[i]) caught = true;
    }
  }
  report.check(caught, "a doctored cache entry was not detected");
}

/// Per-request replay through the pieces run_batch is made of, each
/// call wrapped in its own span.  Hit path: parse (which also derives the
/// key), cache key, hit lookup, encode.  Then, in a second loop so it does
/// not disturb the first, the miss path against an empty directory:
/// lookup (incl. the legacy-key probes) and try_store.
void decomposed_pass(const std::vector<Request>& requests,
                     io::ResultCache& warm, const fs::path& empty_dir,
                     Tracer& tracer) {
  std::vector<io::ParsedRequestLine> parsed(requests.size());
  std::vector<e2e::BoundResult> results(requests.size());
  std::vector<e2e::DelayProfile> profiles(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto rid = static_cast<std::int64_t>(i);
    const Scoped root(tracer, "batch.request", -1, rid);
    const std::string line = with_id(requests[i].payload, rid);
    {
      const Scoped span(tracer, "io.parse_request_line", root.id(), rid);
      parsed[i] = io::parse_request_line(line, e2e::Method::kExactOpt);
    }
    const io::ParsedRequestLine& req = parsed[i];
    std::string key;
    {
      const Scoped span(tracer, "io.cache_key", root.id(), rid);
      key = req.is_profile()
                ? io::profile_cache_key(req.scenario, req.epsilons, req.options)
                : io::solve_cache_key(req.scenario, req.options);
    }
    io::CacheLookup found;
    {
      const Scoped span(tracer, "io.ResultCache::lookup_hit", root.id(), rid);
      found = req.is_profile() ? warm.lookup_profile(key, profiles[i])
                               : warm.lookup(req.scenario, req.options, results[i]);
    }
    const Scoped span(tracer, "io.encode", root.id(), rid);
    if (req.is_profile()) {
      io::apply_cache_outcome(profiles[i], found, key);
      (void)io::make_ok_profile_response(req.id, true, found, profiles[i]).dump();
    } else {
      io::apply_cache_outcome(results[i], found, key);
      (void)io::make_ok_response(req.id, true, found, results[i]).dump();
    }
  }
  fs::remove_all(empty_dir);
  io::ResultCache empty(empty_dir);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto rid = static_cast<std::int64_t>(i);
    const io::ParsedRequestLine& req = parsed[i];
    const Scoped root(tracer, "batch.miss_request", -1, rid);
    if (req.is_profile()) {
      e2e::DelayProfile none;
      {
        const Scoped span(tracer, "io.ResultCache::lookup_miss", root.id(), rid);
        (void)empty.lookup_profile(req.key, none);
      }
      const Scoped span(tracer, "io.ResultCache::try_store", root.id(), rid);
      (void)empty.try_store_profile(req.key, profiles[i]);
    } else {
      e2e::BoundResult none;
      {
        const Scoped span(tracer, "io.ResultCache::lookup_miss", root.id(), rid);
        (void)empty.lookup(req.scenario, req.options, none);
      }
      const Scoped span(tracer, "io.ResultCache::try_store", root.id(), rid);
      (void)empty.try_store(req.key, results[i]);
    }
  }
}

/// Responses per second over `call_ms`.
double rate(const std::vector<double>& call_ms) {
  return static_cast<double>(kChunk * call_ms.size()) / (sum(call_ms) * 1e-3);
}

/// `stat` of each CPU's untraced calls, in CPU order.  The CPUs of a
/// shared box differ in speed, so a statistic over all calls would jump
/// between their modes as the split of calls shifts; the median of the
/// per-CPU values does not, and one CPU a neighbour keeps busy does not
/// set it either.
std::vector<double> per_cpu(const Loop& loop,
                            const std::function<double(const std::vector<double>&)>& stat) {
  std::map<int, std::vector<double>> by_cpu;
  for (std::size_t i = 0; i < loop.call_ms.size(); ++i) {
    by_cpu[loop.call_cpu[i]].push_back(loop.call_ms[i]);
  }
  std::vector<double> out;
  for (const auto& [cpu, ms] : by_cpu) out.push_back(stat(ms));
  return out;
}

std::vector<double> us(const std::vector<double>& ms) {
  std::vector<double> out;
  for (const double v : ms) out.push_back(v * 1e3);
  return out;
}

}  // namespace

Report run_batch_warm(const Context& ctx) {
  Report report;
  // Every chunk holds the same mix (6 scalar + 2 profile requests, in a
  // seeded order) and every seed the same kinds of requests, so the
  // per-call latency, the response volume and the cold set-up's work do
  // not hinge on how a seed happens to draw the kinds.
  Rng rng(ctx.seed ^ 0xBA7C4ull);
  const std::size_t n_profiles = kRequests / kChunk * kProfilesPerChunk;
  const std::vector<Request> scalars =
      balanced_requests(rng, kRequests - n_profiles, false);
  const std::vector<Request> profiles = balanced_requests(rng, n_profiles, true);
  std::vector<Request> requests;
  for (std::size_t c = 0; c < kRequests / kChunk; ++c) {
    std::vector<Request> chunk(
        scalars.begin() + static_cast<std::ptrdiff_t>(c * (kChunk - kProfilesPerChunk)),
        scalars.begin() + static_cast<std::ptrdiff_t>((c + 1) * (kChunk - kProfilesPerChunk)));
    chunk.insert(chunk.end(),
                 profiles.begin() + static_cast<std::ptrdiff_t>(c * kProfilesPerChunk),
                 profiles.begin() + static_cast<std::ptrdiff_t>((c + 1) * kProfilesPerChunk));
    for (std::size_t i = chunk.size() - 1; i > 0; --i) {
      std::swap(chunk[i], chunk[rng.below(i + 1)]);
    }
    requests.insert(requests.end(), chunk.begin(), chunk.end());
  }
  std::string all;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    all += with_id(requests[i].payload, static_cast<long long>(i)) + "\n";
  }

  // Set-up, kSetups times in fresh directories (median): the cold batch.
  // Its (normalized) responses are the reference of every later check,
  // and must agree across the cold runs.  Each starts after the previous
  // one's writes are flushed, so it does not pay for their writeback.
  std::vector<double> setups;
  std::vector<std::string> cold;
  fs::path dir;
  for (int k = 0; k < kSetups; ++k) {
    dir = ctx.work / ("cache-" + std::to_string(k));
    fs::remove_all(dir);
    ::sync();
    const auto t0 = Clock::now();
    io::ResultCache cache(dir);
    double ms = 0.0;
    io::BatchSummary summary;
    const std::vector<std::string> lines =
        split_lines(batch(all, cache, ctx.threads, ms, &summary));
    setups.push_back(seconds_since(t0));
    std::vector<std::string> normalized;
    for (const std::string& line : lines) {
      normalized.push_back(normalize_response(line));
    }
    report.check(summary.solved == static_cast<long long>(kRequests) &&
                     summary.failed == 0 && summary.parse_errors == 0,
                 "cold batch did not solve every request");
    if (k == 0) {
      cold = normalized;
    } else {
      report.check(normalized == cold, "cold batch answers differ between runs");
    }
  }
  std::fprintf(stderr, "batch_warm: cold set-ups (s):");
  for (const double s : setups) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");

  std::vector<Chunk> chunks;
  for (std::size_t i = 0; i < requests.size(); i += kChunk) {
    Chunk chunk;
    for (std::size_t j = i; j < std::min(i + kChunk, requests.size()); ++j) {
      chunk.text += with_id(requests[j].payload, static_cast<long long>(j)) + "\n";
      chunk.expected.push_back(cold[j]);
    }
    chunks.push_back(std::move(chunk));
  }

  check_doctored(chunks, dir, ctx, report);
  // Flush the set-up's writes now, so kernel writeback does not compete
  // with the timed reads of the same files.
  ::sync();

  io::ResultCache cache(dir);
  // Deterministic sizes: normalized responses and cache entries.
  double response_bytes = 0, entry_bytes = 0, entries = 0;
  for (const std::string& line : cold) response_bytes += static_cast<double>(line.size());
  for (const auto& e : fs::directory_iterator(dir)) {
    entry_bytes += static_cast<double>(normalize_response(read_file(e.path())).size());
    entries += 1;
  }
  report.exact["io.response_bytes.mean"] = response_bytes / static_cast<double>(cold.size());
  report.exact["io.entry_bytes.mean"] = entry_bytes / entries;

  if (!ctx.trace) {
    Tracer off;
    Loop loop;
    timed_loop(chunks, cache, ctx, ctx.seconds, off, loop, report);
    const auto p50 = [](const std::vector<double>& w) { return percentile(w, 0.50); };
    const auto p99 = [](const std::vector<double>& w) { return percentile(w, 0.99); };
    // Per CPU: medians over its stints of 100 calls (throughput) and over
    // windows of 1000 of its calls (latency percentiles); then the median
    // over the CPUs.
    const std::vector<double> rates = per_cpu(
        loop, [](const std::vector<double>& v) { return windowed_median(v, 100, rate); });
    const std::vector<double> p50s = per_cpu(
        loop, [&](const std::vector<double>& v) { return windowed_median(v, 1000, p50); });
    const std::vector<double> p99s = per_cpu(
        loop, [&](const std::vector<double>& v) { return windowed_median(v, 1000, p99); });
    for (std::size_t c = 0; c < rates.size(); ++c) {
      std::fprintf(stderr, "batch_warm: CPU slot %zu: %.0f responses/s, p50 %.3f ms, p99 %.3f ms\n",
                   c, rates[c], p50s[c], p99s[c]);
    }
    report.metrics["setup_s"] = median(setups);
    report.metrics["throughput_per_s"] = median(rates);
    report.metrics["latency_p50_ms"] = median(p50s);
    report.metrics["latency_p99_ms"] = median(p99s);
    report.metrics["peak_rss_mb"] = peak_rss_mb();
    return report;
  }

  Tracer tracer;
  tracer.enabled = true;
  Loop loop;
  timed_loop(chunks, cache, ctx, ctx.seconds * 0.75, tracer, loop, report);
  // Glue share: one run_batch over every request, then the same requests
  // through the decomposed pieces, back to back so both see the same box.
  std::vector<double> glue;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < ctx.seconds / 4 || glue.empty()) {
    double batch_ms = 0.0;
    {
      const Scoped span(tracer, "io.run_batch", -1, -1);
      (void)batch(all, cache, ctx.threads, batch_ms);
    }
    const std::size_t first = tracer.spans().size();
    decomposed_pass(requests, cache, ctx.work / "cache-empty", tracer);
    double parts_ms = 0.0;
    for (std::size_t i = first; i < tracer.spans().size(); ++i) {
      const Tracer::Span& s = tracer.spans()[i];
      if (s.name == "io.parse_request_line" || s.name == "io.ResultCache::lookup_hit" ||
          s.name == "io.encode") {
        parts_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      }
    }
    glue.push_back(1.0 - parts_ms / batch_ms);
  }
  tracer.write_jsonl(ctx.work / "trace-batch_warm.jsonl");

  auto& m = report.metrics;
  for (const auto& [name, value] : report.exact) m[name] = value;
  const std::vector<double> parse = tracer.self_ms("io.parse_request_line");
  const std::vector<double> hit = tracer.self_ms("io.ResultCache::lookup_hit");
  const std::vector<double> encode = tracer.self_ms("io.encode");
  m["batch.requests_per_s"] = rate(loop.call_ms);
  m["io.parse_us.p50"] = percentile(us(parse), 0.50);
  m["io.key_us.p50"] = percentile(us(tracer.self_ms("io.cache_key")), 0.50);
  m["io.encode_us.p50"] = percentile(us(encode), 0.50);
  m["io.lookup_hit_us.p50"] = percentile(us(hit), 0.50);
  m["io.lookup_miss_us.p50"] =
      percentile(us(tracer.self_ms("io.ResultCache::lookup_miss")), 0.50);
  m["io.store_us.p50"] =
      percentile(us(tracer.self_ms("io.ResultCache::try_store")), 0.50);
  m["io.batch_glue_share"] = median(glue);
  m["io.hit_ratio"] = static_cast<double>(loop.cache.hits) /
                      static_cast<double>(loop.cache.lookups());
  m["trace.overhead_share"] = 1.0 - rate(loop.traced_ms) / rate(loop.call_ms);
  return report;
}

}  // namespace perfbench
