// deltanc command-line interface: compute end-to-end delay bounds
// (optionally validate them by simulation), or fan a whole scenario grid
// out across all cores with the sweep engine -- without writing code.
//
//   deltanc_cli --hops 5 --scheduler fifo --u0 0.15 --uc 0.35
//   deltanc_cli --hops 10 --scheduler edf --edf-own 1 --edf-cross 10
//               --epsilon 1e-9 --simulate 200000   (one line)
//   deltanc_cli --u0 0.15 --sweep uc=0.05:0.80:16 --sweep scheduler=fifo,edf
//   deltanc_cli --sweep hops=2,5,10 --threads 4 --csv
//   deltanc_cli --sweep uc=0.1:0.8:8 --emit-batch > requests.jsonl
//   deltanc_cli --batch requests.jsonl --cache-dir ~/.cache/deltanc
//   deltanc_cli --serve /tmp/deltanc.sock --serve-workers 4
//               --cache-dir ~/.cache/deltanc   (one line)
//
// Run with --help for the full flag reference (kept in sync with
// README.md's flag table).  Unknown flags are rejected with a usage
// error, and the resolved scenario (C/H/scheduler/U0/Uc/eps) is printed
// before any results so logs are self-describing.
//
// Stream discipline: machine-parseable output (the --csv table, the
// --batch / --emit-batch JSONL) goes to stdout and *only* that; all
// human narration -- progress, summaries, stats, warnings, diagnostics
// -- goes to stderr, so every mode can be piped straight into a parser.
#include <array>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "core/scenario.h"
#include "core/selfcheck.h"
#include "core/sweep.h"
#include "e2e/solver.h"
#include "io/batch.h"
#include "sched/scheduler_spec.h"
#include "serve/listener.h"

namespace {

using namespace deltanc;

// The scheduler name list is substituted from the one registry
// (sched::scheduler_usage_names) so this text can never drift from it.
constexpr const char* kUsageFormat = R"(usage: deltanc_cli [flags]

Scenario flags (defaults = the paper's Section-V setting):
  --capacity <Mbps>      link rate per node          (default 100)
  --hops <H>             path length                 (default 2)
  --n0 <count>           through flows               (default 100)
  --nc <count>           cross flows per node        (default 100)
  --u0 <frac>            through load (overrides --n0)
  --uc <frac>            cross load (overrides --nc)
  --epsilon <p>          violation probability       (default 1e-9)
  --scheduler <name>     %s
                         (default fifo; delta:<Delta> is the explicit
                         fixed-offset scheduler, Delta in ms or +/-inf)
  --edf-own <f>          EDF own-deadline factor     (default 1)
  --edf-cross <f>        EDF cross-deadline factor   (default 10)
  --method <name>        exact | paper-k             (default exact)

Single-point mode:
  --additive             also print the additive per-node baseline
  --report               print a full markdown report instead
  --simulate <slots>     validate against a simulation of that length
  --ccdf <lo:hi:pts>     solve the full d(epsilon) CCDF profile on a
                         log-spaced epsilon grid (pts <= 1024) and print
                         it as CSV on stdout (full %%.17g precision); honors
                         --warm-start: warm (default) chains solver
                         state across levels, cold pins every level
                         bit-identical to a scalar solve at that epsilon
  --csv                  print the result as a one-row CSV (same columns
                         as the --ccdf profile CSV) instead of prose
  --stats                print solver instrumentation (eval counts, EDF
                         iterations, stage timings, profile counters);
                         in sweep mode the counters are summed over all
                         points

Sweep mode (repeatable; axes cross-multiply in the order given):
  --sweep <axis>=<lo>:<hi>:<steps>   numeric axis, evenly spaced
  --sweep <axis>=<v1>,<v2>,...       explicit values
      axes: hops, u0, uc, epsilon, capacity, delta, scheduler
      (scheduler takes names as above; the delta axis interpolates
      FIFO -> BMUX, e.g. --sweep delta=0:50:11)
  --threads <n>          sweep workers (default: DELTANC_THREADS env or
                         all cores); results are identical for any n
  --warm-start <policy>  warm | cold (default warm): warm chains solver
                         state along the innermost numeric sweep axis
                         (stable-s bracket, previous optimum, EDF
                         fixed point); cold solves every point from
                         scratch, bit-identical to a single solve
  --csv                  print only the CSV of the sweep results
      with --ccdf, every sweep point additionally solves the whole
      d(epsilon) profile and the profile CSV (one row per point x
      level) is printed after -- or, with --csv, instead of -- the
      scalar sweep CSV

Self-check mode:
  --selfcheck            verify solver invariants (scheduler ordering,
                         monotonicity in H/U/eps and Delta, endpoint
                         pinning of the delta axis, exact vs paper-K
                         agreement, finiteness) on the Fig. 2-4 grids,
                         or on the --sweep grid when axes are given;
                         with a curve-backed --scheduler (gps/drr/sced)
                         runs the curve battery instead (share/quantum
                         monotonicity, SP-high <= GPS, GPS <= DRR,
                         sced == gps on symmetric loads, GPS isolation
                         at overload)

Batch service mode (JSONL on stdout, narration on stderr):
  --batch <file|->       answer one JSON solve request per input line
                         ({"schema":N,"scenario":{...},"options":{...},
                         "id":...}); responses stream in input order;
                         a request carrying a non-empty "epsilons"
                         array is a profile request and is answered
                         with the full d(epsilon) artifact
  --emit-batch           print the scenario (or --sweep grid) as a
                         batch request file instead of solving it;
                         with --ccdf each request carries the epsilon
                         grid (i.e. becomes a profile request)
  --cache-dir <dir>      persistent result cache directory (default:
                         DELTANC_CACHE_DIR env; no caching when unset)
  --lint-jsonl <file|->  parse+decode every payload of a request/
                         response file, report each malformed line,
                         solve nothing

Persistent service mode (long-running; same JSONL protocol):
  --serve <socket>       serve batch requests on a Unix-domain socket,
                         keeping solver workspaces and the result
                         cache warm across requests (keyspace sharded
                         across the workers); SIGTERM/SIGINT drain --
                         every accepted request is answered -- and
                         SIGHUP drops the warm layer and reopens the
                         cache directory
  --serve-workers <n>    worker (= cache shard) count
                         (default: the --threads rule)
  --serve-queue <n>      per-worker queue depth; a full queue answers
                         a classified overload error     (default 512)
  --serve-memory <n>     per-worker in-memory warm results, 0 = disk
                         cache only                    (default 65536)
  --deadline-ms <ms>     per-request deadline; an overrun is answered
                         as a classified timeout and the worker is
                         replaced                 (default: no limit)
  --fault-plan <spec>    deterministic fault injection; entries
                         delay:<id>:<ms>; store-fail:<n>, joined
                         with ';'

Exit codes: 0 all ok; 1 failed points / bound violated / self-check
issues / malformed batch lines; 2 usage error or invalid scenario;
3 completed but some points carry warnings or needed recoveries
(including corrupt-cache-entry re-solves and failed cache stores);
4 the output consumer hung up before every response was written.

  --help                 this text
)";

void print_usage(std::FILE* out) {
  std::fprintf(out, kUsageFormat, sched::scheduler_usage_names().c_str());
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "deltanc_cli: %s\n", message.c_str());
  print_usage(stderr);
  std::exit(2);
}

double parse_double(const char* value, const char* flag) {
  // Strict and locale-independent: no leading whitespace, '+', or
  // hexfloat forms -- "--capacity 0x50" is a typo, not 80 Mbps.
  double parsed = 0.0;
  if (!sched::parse_strict_double(value, parsed)) {
    usage_error(std::string("bad numeric value for ") + flag);
  }
  return parsed;
}

/// The strict integer rule of every integer flag: `v` must have no
/// fractional part and lie in [min, the largest Int].  "--hops 2.5" or
/// "--threads 1e10" is a usage error, never a silent truncation or an
/// out-of-range cast.
template <typename Int>
Int checked_int(double v, const char* flag, Int min) {
  // max + 1 is a power of two, exact as a double even where max is not.
  const double above_max =
      static_cast<double>(std::numeric_limits<Int>::max()) + 1.0;
  if (v != std::floor(v) || v < static_cast<double>(min) ||
      !(v < above_max)) {
    char got[32];
    std::snprintf(got, sizeof got, "%.17g", v);
    const std::string max = std::to_string(std::numeric_limits<Int>::max());
    usage_error(std::string("bad integer value for ") + flag + " (got " +
                got + "; want a whole number " +
                (min == std::numeric_limits<Int>::min()
                     ? "<= " + max
                     : "in [" + std::to_string(min) + ", " + max + "]") +
                ")");
  }
  return static_cast<Int>(v);
}

/// An integer flag value: parse_double's grammar, then checked_int.
template <typename Int>
Int parse_int(const char* value, const char* flag,
              Int min = std::numeric_limits<Int>::min()) {
  return checked_int(parse_double(value, flag), flag, min);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(sep, start);
    out.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) return out;
    start = pos + 1;
  }
}

/// One --sweep flag: axis name + value list, applied to a SweepGrid.
/// A scheduler axis of bare kind names replays through the kind overload
/// (keeping the base's --edf-own/--edf-cross factors, the historical
/// behavior); one containing a "delta:<v>" spec replaces specs wholesale.
struct SweepFlag {
  std::string axis;
  std::vector<double> numeric;
  std::vector<int> hops;  ///< the hops axis's values, checked integers
  std::vector<sched::SchedulerKind> scheduler_kinds;
  std::vector<sched::SchedulerSpec> schedulers;
};

SweepFlag parse_sweep_spec(const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
    usage_error("bad --sweep spec '" + spec + "' (want axis=values)");
  }
  SweepFlag out;
  out.axis = spec.substr(0, eq);
  const std::string values = spec.substr(eq + 1);

  if (out.axis == "scheduler") {
    // Weight lists reuse the comma ("gps:1,2"), so the value list cannot
    // be split naively: parse_scheduler_list resolves the ambiguity by
    // maximal munch (each name claims the longest run that parses).
    if (!sched::parse_scheduler_list(values, out.schedulers)) {
      usage_error("bad scheduler list '" + values + "' in --sweep");
    }
    bool kinds_only = true;
    for (const sched::SchedulerSpec& s : out.schedulers) {
      sched::SchedulerKind k{};
      kinds_only = kinds_only &&
                   sched::scheduler_kind_from_name(sched::to_string(s), k) &&
                   k != sched::SchedulerKind::kDelta;
      if (kinds_only) out.scheduler_kinds.push_back(k);
    }
    if (!kinds_only) out.scheduler_kinds.clear();
    return out;
  }
  if (out.axis != "hops" && out.axis != "u0" && out.axis != "uc" &&
      out.axis != "epsilon" && out.axis != "capacity" &&
      out.axis != "delta") {
    usage_error("unknown sweep axis '" + out.axis + "'");
  }
  if (values.find(':') != std::string::npos) {
    const std::vector<std::string> parts = split(values, ':');
    if (parts.size() != 3) {
      usage_error("bad --sweep range '" + values + "' (want lo:hi:steps)");
    }
    const double lo = parse_double(parts[0].c_str(), "--sweep");
    const double hi = parse_double(parts[1].c_str(), "--sweep");
    const int steps = parse_int(parts[2].c_str(), "--sweep steps", 1);
    out.numeric = SweepGrid::linspace(lo, hi, steps);
  } else {
    for (const std::string& v : split(values, ',')) {
      out.numeric.push_back(parse_double(v.c_str(), "--sweep"));
    }
  }
  if (out.axis == "hops") {
    // Every hops value -- listed, or produced by the range -- is a path
    // length: a fraction is an error, not a rounding.
    for (double v : out.numeric) {
      out.hops.push_back(checked_int(v, "--sweep hops", 1));
    }
  }
  return out;
}

void apply_axis(SweepGrid& grid, const SweepFlag& spec) {
  if (spec.axis == "scheduler") {
    if (!spec.scheduler_kinds.empty()) {
      grid.scheduler_axis(spec.scheduler_kinds);
    } else {
      grid.scheduler_axis(spec.schedulers);
    }
  } else if (spec.axis == "delta") {
    grid.delta_axis(spec.numeric);
  } else if (spec.axis == "hops") {
    grid.hops_axis(spec.hops);
  } else if (spec.axis == "u0") {
    grid.through_utilization_axis(spec.numeric);
  } else if (spec.axis == "uc") {
    grid.cross_utilization_axis(spec.numeric);
  } else if (spec.axis == "epsilon") {
    grid.epsilon_axis(spec.numeric);
  } else {  // capacity (parse_sweep_spec rejected everything else)
    grid.capacity_axis(spec.numeric);
  }
}

void print_scenario(const e2e::Scenario& sc, std::FILE* out = stdout) {
  const double u0 = sc.n_through * sc.source.mean_rate() / sc.capacity;
  const double uc = sc.n_cross * sc.source.mean_rate() / sc.capacity;
  std::fprintf(out,
               "scenario: C = %.1f Mbps, H = %d, scheduler = %s, "
               "N0 = %d (U0 = %.1f%%), Nc = %d (Uc = %.1f%%), "
               "U = %.1f%%, eps = %g",
               sc.capacity, sc.hops, sched::to_string(sc.scheduler).c_str(),
               sc.n_through, 100.0 * u0, sc.n_cross, 100.0 * uc,
               100.0 * sc.utilization(), sc.epsilon);
  if (sc.scheduler == sched::SchedulerKind::kEdf) {
    const sched::EdfFactors& edf = sc.scheduler.edf_factors();
    std::fprintf(out, ", edf = %g/%g", edf.own_factor, edf.cross_factor);
  }
  std::fprintf(out, "\n");
}

/// One machine-friendly key=value line (greppable by scripts/check.sh).
void print_stats(const e2e::SolveStats& stats, std::FILE* out) {
  std::fprintf(out,
               "stats: optimize_evals=%lld eb_evals=%lld sigma_evals=%lld "
               "edf_iterations=%d edf_converged=%s retries=%d fallbacks=%d "
               "scan_ms=%.2f refine_ms=%.2f batched_evals=%lld "
               "warm_start_hits=%lld brackets_reused=%lld "
               "profile_levels=%lld profile_chain_hits=%lld\n",
               static_cast<long long>(stats.optimize_evals),
               static_cast<long long>(stats.eb_evals),
               static_cast<long long>(stats.sigma_evals),
               stats.edf_iterations, stats.edf_converged ? "yes" : "no",
               stats.retries, stats.fallbacks, stats.scan_ms,
               stats.refine_ms, static_cast<long long>(stats.batched_evals),
               static_cast<long long>(stats.warm_start_hits),
               static_cast<long long>(stats.brackets_reused),
               static_cast<long long>(stats.profile_levels),
               static_cast<long long>(stats.profile_chain_hits));
}

/// --ccdf lo:hi:points -> the log-spaced epsilon grid (caller order
/// lo -> hi; the profile engine reorders internally for warm chaining
/// but reports levels in this order).
std::vector<double> parse_ccdf_spec(const std::string& spec) {
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.size() != 3) {
    usage_error("bad --ccdf spec '" + spec + "' (want lo:hi:points)");
  }
  const double lo = parse_double(parts[0].c_str(), "--ccdf");
  const double hi = parse_double(parts[1].c_str(), "--ccdf");
  const int n = parse_int(parts[2].c_str(), "--ccdf points", 1);
  if (static_cast<std::size_t>(n) > io::kMaxProfileLevels) {
    usage_error("--ccdf points must be at most " +
                std::to_string(io::kMaxProfileLevels));
  }
  if (!(lo > 0.0) || !(lo < 1.0) || !(hi > 0.0) || !(hi < 1.0)) {
    usage_error("--ccdf epsilons must be in (0, 1)");
  }
  std::vector<double> eps;
  eps.reserve(static_cast<std::size_t>(n));
  if (n == 1) {
    eps.push_back(lo);
    return eps;
  }
  const double llo = std::log(lo);
  const double lhi = std::log(hi);
  for (int i = 0; i < n; ++i) {
    eps.push_back(std::exp(llo + (lhi - llo) * static_cast<double>(i) /
                                     static_cast<double>(n - 1)));
  }
  return eps;
}

/// One "warning: <kind>: <detail>" line per diagnostic warning.
void print_warnings(const e2e::BoundResult& bound, std::FILE* out) {
  for (const diag::Warning& w : bound.diagnostics.warnings) {
    std::fprintf(out, "warning: %s: %s\n", diag::solve_error_name(w.kind),
                 w.message.c_str());
  }
}

/// Opens `path` ("-" = stdin) into `file`; returns the stream to read.
std::istream* open_input(const std::string& path, std::ifstream& file) {
  if (path == "-") return &std::cin;
  file.open(path);
  if (!file) {
    std::fprintf(stderr, "deltanc_cli: cannot open %s\n", path.c_str());
    return nullptr;
  }
  return &file;
}

/// --emit-batch: the scenario (or the --sweep grid over it) rendered as
/// a JSONL request file on stdout, one request per grid point.  A
/// non-empty `ccdf_epsilons` (--ccdf) turns every line into a profile
/// request by attaching the epsilon grid.
int run_emit_batch(const SweepGrid& grid, e2e::Method method,
                   const std::vector<double>& ccdf_epsilons) {
  SolveOptions options;
  options.method = method;
  const std::size_t n = grid.size();
  std::string req;
  for (std::size_t i = 0; i < n; ++i) {
    req = "{\"schema\":";
    io::json::append_number(req, io::kSchemaVersion);
    req += ",\"id\":";
    io::json::append_number(req, static_cast<double>(i));
    req += ",\"scenario\":";
    io::append_json(req, grid.scenario_at(i));
    req += ",\"options\":";
    io::append_json(req, options);
    if (!ccdf_epsilons.empty()) {
      req += ",\"epsilons\":[";
      for (std::size_t k = 0; k < ccdf_epsilons.size(); ++k) {
        if (k > 0) req += ',';
        io::json::append_number(req, ccdf_epsilons[k]);
      }
      req += ']';
    }
    req += "}\n";
    std::cout << req;
  }
  std::fprintf(stderr, "emit-batch: %zu request(s)%s\n", n,
               ccdf_epsilons.empty() ? "" : " (profile)");
  return 0;
}

/// --batch: JSONL requests in, JSONL responses out (stdout stays pure;
/// the summary, cache traffic, and stats land on stderr).
int run_batch_mode(const std::string& path, int threads, e2e::Method method,
                   const std::string& cache_dir, bool want_stats) {
  std::ifstream file;
  std::istream* in = open_input(path, file);
  if (in == nullptr) return 2;

  std::optional<io::ResultCache> cache;
  // --cache-dir wins over DELTANC_CACHE_DIR; neither set = no caching.
  const std::filesystem::path dir =
      cache_dir.empty() ? io::ResultCache::directory_from_env({})
                        : std::filesystem::path(cache_dir);
  if (!dir.empty()) {
    try {
      cache.emplace(dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "deltanc_cli: %s\n", e.what());
      return 2;
    }
  }

  io::BatchOptions options;
  options.threads = threads;
  options.default_method = method;
  options.cache = cache.has_value() ? &*cache : nullptr;
  options.progress = [](std::size_t done, std::size_t total) {
    std::fprintf(stderr, "\rsolving %zu/%zu", done, total);
    if (done == total) std::fprintf(stderr, "\n");
  };

  const io::BatchSummary summary = io::run_batch(*in, std::cout, options);
  std::fprintf(stderr,
               "batch: requests=%lld cached=%lld solved=%lld "
               "parse_errors=%lld failed=%lld wall_ms=%.3f\n",
               static_cast<long long>(summary.requests),
               static_cast<long long>(summary.cached),
               static_cast<long long>(summary.solved),
               static_cast<long long>(summary.parse_errors),
               static_cast<long long>(summary.failed), summary.wall_ms);
  if (cache.has_value()) {
    const io::CacheStats& cs = summary.cache_stats;
    std::fprintf(stderr,
                 "cache: dir=%s hits=%lld misses=%lld stale=%lld "
                 "corrupt=%lld stores=%lld store_failures=%lld\n",
                 cache->directory().c_str(), static_cast<long long>(cs.hits),
                 static_cast<long long>(cs.misses),
                 static_cast<long long>(cs.stale),
                 static_cast<long long>(cs.corrupt),
                 static_cast<long long>(cs.stores),
                 static_cast<long long>(cs.store_failures));
    if (cs.store_failures > 0) {
      std::fprintf(stderr,
                   "warning: %lld cache store(s) failed; those results were "
                   "solved through and answered uncached\n",
                   static_cast<long long>(cs.store_failures));
    }
  }
  if (want_stats) print_stats(summary.stats, stderr);
  if (summary.output_failed) {
    std::fprintf(stderr,
                 "batch: output closed early; %lld response(s) were never "
                 "written\n",
                 static_cast<long long>(summary.requests - summary.responses));
    return 4;
  }
  if (summary.parse_errors > 0 || summary.failed > 0) return 1;
  return (summary.cache_stats.corrupt > 0 ||
          summary.cache_stats.store_failures > 0)
             ? 3
             : 0;
}

/// --lint-jsonl: every non-blank line must parse as JSON, carry the
/// supported schema, and decode as a request and/or response payload:
/// "scenario", "options" and "epsilons" under the request rules,
/// "result" and "profile" as results.
int run_lint_jsonl(const std::string& path) {
  std::ifstream file;
  std::istream* in = open_input(path, file);
  if (in == nullptr) return 2;
  std::string line;
  std::size_t line_no = 0, checked = 0, bad = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ++checked;
    try {
      const io::json::Document doc(line);
      const io::json::Node root = doc.root();
      io::require_schema(root);
      static constexpr std::array<std::string_view, 5> kNames = {
          "scenario", "options", "epsilons", "result", "profile"};
      std::array<io::json::Node, kNames.size()> f{};
      root.lookup(kNames, f);
      if (f[0]) (void)io::decode_scenario(f[0]);
      if (f[1] && !f[1].is_null()) (void)io::decode_solve_options(f[1]);
      if (f[2] && !f[2].is_null()) (void)io::decode_profile_epsilons(f[2]);
      if (f[3]) (void)io::decode_bound_result(f[3]);
      if (f[4]) (void)io::decode_delay_profile(f[4]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lint: %s:%zu: %s\n", path.c_str(), line_no,
                   e.what());
      ++bad;
    }
  }
  std::fprintf(stderr, "lint: %zu line(s) checked, %zu malformed\n", checked,
               bad);
  return bad > 0 ? 1 : 0;
}

// ----- --serve ------------------------------------------------------------

// Signal flags for the persistent service: the accept loop polls these
// between accepts (async-signal-safe -- handlers only set a flag).
volatile std::sig_atomic_t g_serve_stop = 0;
volatile std::sig_atomic_t g_serve_reload = 0;

extern "C" void serve_stop_handler(int) { g_serve_stop = 1; }
extern "C" void serve_reload_handler(int) { g_serve_reload = 1; }

struct ServeCliOptions {
  std::string socket_path;
  int workers = 0;             ///< 0 = the --threads rule
  std::size_t queue_depth = 512;
  std::size_t memory_entries = 1 << 16;
  double deadline_ms = 0.0;
  std::string fault_spec;      ///< --fault-plan; "" = no faults
};

/// --serve: the persistent solve service on a Unix-domain socket.
/// Returns 0 on a clean SIGTERM/SIGINT drain (every accepted request
/// answered), 2 when the socket or cache directory cannot be set up.
int run_serve_mode(const ServeCliOptions& cli, int threads,
                   e2e::Method method, const std::string& cache_dir) {
  serve::ServeOptions options;
  std::string fault_error;
  if (!serve::FaultPlan::parse(cli.fault_spec, options.faults, fault_error)) {
    usage_error("--fault-plan: " + fault_error);
  }
  options.workers = cli.workers > 0 ? cli.workers : threads;
  options.queue_depth = cli.queue_depth;
  options.memory_entries = cli.memory_entries;
  options.deadline_ms = cli.deadline_ms;
  options.default_method = method;
  options.cache_dir = cache_dir.empty()
                          ? io::ResultCache::directory_from_env({})
                          : std::filesystem::path(cache_dir);

  std::signal(SIGTERM, serve_stop_handler);
  std::signal(SIGINT, serve_stop_handler);
  std::signal(SIGHUP, serve_reload_handler);

  std::optional<serve::SolveService> service;
  try {
    service.emplace(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deltanc_cli: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr,
               "serve: listening on %s (%d worker(s), queue %zu, "
               "deadline %s, cache %s)%s%s\n",
               cli.socket_path.c_str(), service->workers(),
               options.queue_depth,
               options.deadline_ms > 0
                   ? (std::to_string(options.deadline_ms) + " ms").c_str()
                   : "off",
               options.cache_dir.empty() ? "off"
                                         : options.cache_dir.c_str(),
               options.faults.empty() ? "" : ", faults ",
               options.faults.empty() ? ""
                                      : options.faults.to_string().c_str());

  serve::ListenerOptions listener;
  listener.socket_path = cli.socket_path;
  listener.stop = &g_serve_stop;
  listener.reload = &g_serve_reload;
  const bool clean = serve::run_socket_server(*service, listener, std::cerr);
  service->drain();  // idempotent; covers the bind-failure early return

  const serve::ServeStats stats = service->stats();
  std::fprintf(stderr,
               "serve: received=%lld answered=%lld solved=%lld served=%lld "
               "memory_hits=%lld parse_errors=%lld failed=%lld\n",
               static_cast<long long>(stats.received),
               static_cast<long long>(stats.answered),
               static_cast<long long>(stats.solved),
               static_cast<long long>(stats.served),
               static_cast<long long>(stats.memory_hits),
               static_cast<long long>(stats.parse_errors),
               static_cast<long long>(stats.failed));
  std::fprintf(stderr,
               "serve: timeouts=%lld overloads=%lld discarded=%lld "
               "dropped=%lld respawns=%d reloads=%d\n",
               static_cast<long long>(stats.timeouts),
               static_cast<long long>(stats.overloads),
               static_cast<long long>(stats.discarded),
               static_cast<long long>(stats.dropped), stats.respawns,
               stats.reloads);
  if (!options.cache_dir.empty()) {
    const io::CacheStats& cs = stats.cache;
    std::fprintf(stderr,
                 "cache: dir=%s hits=%lld misses=%lld stale=%lld "
                 "corrupt=%lld stores=%lld store_failures=%lld\n",
                 options.cache_dir.c_str(), static_cast<long long>(cs.hits),
                 static_cast<long long>(cs.misses),
                 static_cast<long long>(cs.stale),
                 static_cast<long long>(cs.corrupt),
                 static_cast<long long>(cs.stores),
                 static_cast<long long>(cs.store_failures));
  }
  return clean ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef SIGPIPE
  // A consumer hanging up mid-pipe (`--batch | head`, a serve client
  // disconnecting) must surface as a classified exit code, not a
  // SIGPIPE death: writes fail with EPIPE / a bad stream instead.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  ScenarioBuilder builder;
  e2e::Method method = e2e::Method::kExactOpt;
  bool want_additive = false;
  bool want_report = false;
  bool want_stats = false;
  bool want_selfcheck = false;
  bool csv_only = false;
  bool want_emit_batch = false;
  long long simulate_slots = 0;
  double edf_own = 1.0, edf_cross = 10.0;
  bool scheduler_is_edf = false;
  int threads = 0;
  e2e::WarmStart warm_start = e2e::WarmStart::kWarm;
  std::string batch_path;
  std::string lint_path;
  std::string cache_dir;
  std::vector<double> ccdf_epsilons;
  ServeCliOptions serve_cli;
  std::vector<SweepFlag> sweep_axes;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing value after " + flag);
      return argv[++i];
    };
    if (flag == "--capacity") {
      builder.capacity_mbps(parse_double(next(), "--capacity"));
    } else if (flag == "--hops") {
      builder.hops(parse_int<int>(next(), "--hops"));
    } else if (flag == "--n0") {
      builder.through_flows(parse_int<int>(next(), "--n0"));
    } else if (flag == "--nc") {
      builder.cross_flows(parse_int<int>(next(), "--nc"));
    } else if (flag == "--u0") {
      builder.through_utilization(parse_double(next(), "--u0"));
    } else if (flag == "--uc") {
      builder.cross_utilization(parse_double(next(), "--uc"));
    } else if (flag == "--epsilon") {
      builder.violation_probability(parse_double(next(), "--epsilon"));
    } else if (flag == "--edf-own") {
      edf_own = parse_double(next(), "--edf-own");
    } else if (flag == "--edf-cross") {
      edf_cross = parse_double(next(), "--edf-cross");
    } else if (flag == "--scheduler") {
      const std::string name = next();
      sched::SchedulerSpec s;
      if (!sched::parse_scheduler(name, s)) {
        usage_error("unknown scheduler '" + name + "'");
      }
      builder.scheduler(s);
      scheduler_is_edf = s == sched::SchedulerKind::kEdf;
    } else if (flag == "--method") {
      const std::string name = next();
      if (name == "exact") {
        method = e2e::Method::kExactOpt;
      } else if (name == "paper-k") {
        method = e2e::Method::kPaperK;
      } else {
        usage_error("unknown method '" + name + "'");
      }
    } else if (flag == "--additive") {
      want_additive = true;
    } else if (flag == "--report") {
      want_report = true;
    } else if (flag == "--stats") {
      want_stats = true;
    } else if (flag == "--csv") {
      csv_only = true;
    } else if (flag == "--simulate") {
      simulate_slots = parse_int<long long>(next(), "--simulate", 0);
    } else if (flag == "--threads") {
      threads = parse_int(next(), "--threads", 1);
    } else if (flag == "--warm-start") {
      const std::string policy = next();
      if (policy == "warm") {
        warm_start = e2e::WarmStart::kWarm;
      } else if (policy == "cold") {
        warm_start = e2e::WarmStart::kCold;
      } else {
        usage_error("unknown --warm-start policy '" + policy +
                    "' (want warm or cold)");
      }
    } else if (flag == "--ccdf") {
      ccdf_epsilons = parse_ccdf_spec(next());
    } else if (flag == "--sweep") {
      sweep_axes.push_back(parse_sweep_spec(next()));
    } else if (flag == "--selfcheck") {
      want_selfcheck = true;
    } else if (flag == "--batch") {
      batch_path = next();
    } else if (flag == "--emit-batch") {
      want_emit_batch = true;
    } else if (flag == "--cache-dir") {
      cache_dir = next();
    } else if (flag == "--serve") {
      serve_cli.socket_path = next();
    } else if (flag == "--serve-workers") {
      serve_cli.workers = parse_int(next(), "--serve-workers", 1);
    } else if (flag == "--serve-queue") {
      serve_cli.queue_depth =
          parse_int<std::size_t>(next(), "--serve-queue", 1);
    } else if (flag == "--serve-memory") {
      serve_cli.memory_entries =
          parse_int<std::size_t>(next(), "--serve-memory", 0);
    } else if (flag == "--deadline-ms") {
      serve_cli.deadline_ms = parse_double(next(), "--deadline-ms");
      if (serve_cli.deadline_ms <= 0) {
        usage_error("--deadline-ms must be > 0");
      }
    } else if (flag == "--fault-plan") {
      serve_cli.fault_spec = next();
    } else if (flag == "--lint-jsonl") {
      lint_path = next();
    } else if (flag == "--help" || flag == "-h") {
      print_usage(stdout);
      return 0;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (scheduler_is_edf) builder.edf_deadlines(edf_own, edf_cross);

  // build() collects *all* violations in one pass, so a malformed
  // invocation reports every bad field at once (exit code 2, like other
  // usage errors, but without drowning the message in the flag table).
  e2e::Scenario scenario;
  try {
    scenario = builder.build();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "deltanc_cli: invalid scenario: %s\n", e.what());
    return 2;
  }

  if (!lint_path.empty()) {
    return run_lint_jsonl(lint_path);
  }
  if (!serve_cli.socket_path.empty()) {
    if (!batch_path.empty() || want_selfcheck || want_emit_batch ||
        want_report || want_additive || simulate_slots > 0 || csv_only ||
        !sweep_axes.empty() || !ccdf_epsilons.empty()) {
      usage_error("--serve cannot be combined with other modes");
    }
    return run_serve_mode(serve_cli, threads, method, cache_dir);
  }
  if (!batch_path.empty()) {
    if (want_selfcheck || want_emit_batch || want_report || want_additive ||
        simulate_slots > 0 || csv_only || !sweep_axes.empty() ||
        !ccdf_epsilons.empty()) {
      usage_error("--batch cannot be combined with other modes");
    }
    return run_batch_mode(batch_path, threads, method, cache_dir, want_stats);
  }
  if (want_emit_batch) {
    if (want_selfcheck || want_report || want_additive || simulate_slots > 0 ||
        csv_only) {
      usage_error("--emit-batch cannot be combined with --selfcheck / "
                  "--report / --additive / --simulate / --csv");
    }
    SweepGrid grid(scenario);
    for (const SweepFlag& spec : sweep_axes) apply_axis(grid, spec);
    return run_emit_batch(grid, method, ccdf_epsilons);
  }

  if (want_selfcheck) {
    if (want_report || want_additive || simulate_slots > 0 || csv_only ||
        !ccdf_epsilons.empty()) {
      usage_error("--selfcheck cannot be combined with --report / "
                  "--additive / --simulate / --csv / --ccdf");
    }
    SelfCheckOptions options;
    options.threads = threads;
    options.method = method;
    SelfCheckReport report;
    if (!sweep_axes.empty()) {
      SweepGrid grid(scenario);
      for (const SweepFlag& spec : sweep_axes) apply_axis(grid, spec);
      std::printf("self-check: sweep grid, %zu scenarios\n", grid.size());
      report = self_check(grid, options);
    } else if (scenario.scheduler.is_curve_backed()) {
      std::printf("self-check: curve-backed scheduler battery "
                  "(GPS/DRR/SCED orderings + isolation)\n");
      report = self_check_curve_backed(options);
    } else {
      std::printf("self-check: Fig. 2-4 operating grids\n");
      report = self_check_figures(options);
    }
    for (const SelfCheckIssue& issue : report.issues) {
      std::printf("issue [%s]: %s\n", issue.check.c_str(),
                  issue.detail.c_str());
    }
    std::printf("self-check: %s\n", report.summary().c_str());
    return report.ok() ? 0 : 1;
  }

  if (!sweep_axes.empty()) {
    if (want_report || want_additive || simulate_slots > 0) {
      usage_error("--sweep cannot be combined with --report / --additive / "
                  "--simulate");
    }
    SweepGrid grid(scenario);
    for (const SweepFlag& spec : sweep_axes) apply_axis(grid, spec);

    // Narration always goes to stderr so `--csv` (and plain sweeps piped
    // somewhere) keep stdout machine-parseable.
    std::FILE* info = stderr;
    std::fprintf(info, "base ");
    print_scenario(scenario, info);
    std::fprintf(info, "sweep: %zu points (", grid.size());
    for (std::size_t a = 0; a < grid.axes(); ++a) {
      std::fprintf(info, "%s%s:%zu", a ? " x " : "", grid.axis_name(a).c_str(),
                   grid.axis_size(a));
    }
    std::fprintf(info, ")\n");

    SweepOptions opts;
    opts.threads = threads;
    opts.method = method;
    opts.warm_start = warm_start;
    opts.profile_epsilons = ccdf_epsilons;
    opts.progress = [](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "\rsolving %zu/%zu", done, total);
      if (done == total) std::fprintf(stderr, "\n");
    };
    const SweepReport report = SweepRunner(opts).run(grid);

    if (csv_only) {
      // With --ccdf the profile CSV *is* the machine output (one header,
      // one row per point x level); without it, the scalar sweep CSV.
      if (!ccdf_epsilons.empty()) {
        report.write_profile_csv(std::cout);
      } else {
        report.write_csv(std::cout);
      }
    } else {
      report.to_table().print(std::cout);
      std::printf("\ncsv:\n");
      report.write_csv(std::cout);
      if (!ccdf_epsilons.empty()) {
        std::printf("\nprofile csv:\n");
        report.write_profile_csv(std::cout);
      }
    }
    std::FILE* tail = stderr;
    std::fprintf(tail,
                 "sweep: %zu points in %.0f ms on %d thread(s), chains=%zu; "
                 "%zu unstable, %zu failed, %zu warned, %zu recovered\n",
                 report.points.size(), report.wall_ms, report.threads,
                 report.chains, report.unstable(), report.failures(),
                 report.warned(), report.recovered());
    const diag::ErrorCounts counts = report.counts_by_kind();
    if (counts.total_errors() + counts.total_warnings() > 0) {
      std::fprintf(tail, "diagnostics: %s\n", counts.summary().c_str());
    }
    if (counts.warnings[static_cast<std::size_t>(
            diag::SolveErrorKind::kNoConvergence)] > 0) {
      std::fprintf(stderr,
                   "warning: some EDF fixed points did not converge; their "
                   "bounds use the last iterate (see the warn: rows)\n");
    }
    if (want_stats) print_stats(report.stats, tail);
    if (report.failures() > 0) return 1;
    return (report.warned() + report.recovered() > 0) ? 3 : 0;
  }

  if (!ccdf_epsilons.empty()) {
    if (want_report || want_additive || simulate_slots > 0) {
      usage_error("--ccdf cannot be combined with --report / --additive / "
                  "--simulate");
    }
    // stdout carries only the profile CSV; narration goes to stderr.
    print_scenario(scenario, stderr);
    SolveOptions profile_options;
    profile_options.method = method;
    profile_options.warm_start = warm_start;
    const Solver solver(profile_options);
    e2e::DelayProfile profile;
    try {
      profile = solver.solve_profile(scenario, ccdf_epsilons);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "deltanc_cli: profile solve failed: %s\n",
                   e.what());
      return 1;
    }
    SweepReport one;
    one.points.resize(1);
    one.points[0].scenario = scenario;
    one.points[0].profile = std::make_shared<const e2e::DelayProfile>(profile);
    one.write_profile_csv(std::cout);
    for (std::size_t i = 0; i < profile.levels.size(); ++i) {
      for (const diag::Warning& w : profile.levels[i].diagnostics.warnings) {
        std::fprintf(stderr, "warning: [eps=%g] %s: %s\n",
                     profile.epsilons[i], diag::solve_error_name(w.kind),
                     w.message.c_str());
      }
    }
    if (want_stats) print_stats(profile.stats, stderr);
    // Stability (and hence finiteness) does not depend on epsilon, so
    // the first level speaks for the whole profile.
    return std::isfinite(profile.levels.front().delay_ms) ? 0 : 1;
  }

  if (want_report) {
    ReportOptions options;
    options.simulate_slots = simulate_slots;
    std::printf("%s", render_report(scenario, options).c_str());
    return 0;
  }
  const PathAnalyzer analyzer(scenario);

  if (csv_only) {
    if (want_additive || simulate_slots > 0) {
      usage_error("--csv (single-point) cannot be combined with --additive / "
                  "--simulate");
    }
    // One row in the profile CSV shape, carrying the scalar solve at the
    // scenario's own epsilon -- byte-comparable against any --ccdf level
    // of the same scenario (scripts/check.sh gates on exactly that).
    print_scenario(scenario, stderr);
    const e2e::BoundResult bound = analyzer.bound(method);
    SweepReport one;
    one.points.resize(1);
    one.points[0].scenario = scenario;
    e2e::DelayProfile single;
    single.epsilons = {scenario.epsilon};
    single.levels = {bound};
    one.points[0].profile =
        std::make_shared<const e2e::DelayProfile>(std::move(single));
    one.write_profile_csv(std::cout);
    print_warnings(bound, stderr);
    if (want_stats) print_stats(bound.stats, stderr);
    return std::isfinite(bound.delay_ms) ? 0 : 1;
  }

  print_scenario(scenario);

  const e2e::BoundResult bound = analyzer.bound(method);
  if (!std::isfinite(bound.delay_ms)) {
    std::printf("bound: %s\n",
                bound.diagnostics.ok()
                    ? "unstable configuration (offered load >= capacity)"
                    : bound.diagnostics.message.c_str());
    return 1;
  }
  if (scenario.scheduler.is_curve_backed()) {
    // Curve-backed schedulers have no Delta coordinate (bound.delta is
    // NaN by contract).
    std::printf("end-to-end delay bound: %.3f ms  "
                "(gamma = %.4f, s = %.4f, Delta = n/a)\n",
                bound.delay_ms, bound.gamma, bound.s);
  } else {
    std::printf("end-to-end delay bound: %.3f ms  "
                "(gamma = %.4f, s = %.4f, Delta = %g)\n",
                bound.delay_ms, bound.gamma, bound.s, bound.delta);
  }
  print_warnings(bound, stderr);
  if (want_stats) print_stats(bound.stats, stderr);

  if (want_additive) {
    std::printf("additive per-node baseline (BMUX): %.3f ms\n",
                analyzer.additive_bound().delay_ms);
  }
  if (simulate_slots > 0) {
    const ValidationReport r = analyzer.validate(simulate_slots, 1, &bound);
    std::printf("simulation (%lld slots): quantile@%.2e = %.2f ms, "
                "max = %.2f ms, bound@%.2e = %.3f ms %s\n",
                simulate_slots, r.epsilon_sim, r.empirical_quantile,
                r.empirical_max, r.epsilon_sim, r.bound_at_eps_sim,
                r.bound_holds ? "holds" : "VIOLATED");
    return r.bound_holds ? 0 : 1;
  }
  return 0;
}
