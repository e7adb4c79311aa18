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
// Every flag is declared once, in kFlags, with the modes that read it;
// --help prints that table (README.md's flag table matches it, which
// scripts/check_cli.sh checks).  A run has one mode; an unknown flag, a
// second mode, or a flag the mode does not read is a usage error.  The
// resolved scenario (C/H/scheduler/U0/Uc/eps) is printed before any
// results so logs are self-describing.
//
// Stream discipline: machine-parseable output (the --csv table, the
// --batch / --emit-batch JSONL) goes to stdout and *only* that; all
// human narration -- progress, summaries, stats, warnings, diagnostics
// -- goes to stderr, so every mode can be piped straight into a parser.
#include <algorithm>
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
#include <utility>
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

void print_usage(std::FILE* out);

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "deltanc_cli: %s\n", message.c_str());
  print_usage(stderr);
  std::exit(2);
}

/// A --simulate run the simulator rejects (too few slots to record a
/// through sample): keep what stdout already holds, name the problem on
/// stderr, and exit 2 like any other bad input.
[[noreturn]] void simulate_error(const std::invalid_argument& e) {
  std::fflush(stdout);
  std::fprintf(stderr, "deltanc_cli: --simulate: %s\n", e.what());
  std::exit(2);
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

/// One flag's value, read under the flag's name.
struct Arg {
  const char* flag;
  const char* text;
  [[nodiscard]] double real() const {
    // Strict and locale-independent: no leading whitespace, '+', or
    // hexfloat forms -- "--capacity 0x50" is a typo, not 80 Mbps.
    double parsed = 0.0;
    if (!sched::parse_strict_double(text, parsed)) {
      usage_error(std::string("bad numeric value for ") + flag);
    }
    return parsed;
  }
  /// checked_int's rule over real()'s grammar.
  template <typename Int>
  [[nodiscard]] Int integer(Int min = std::numeric_limits<Int>::min()) const {
    return checked_int(real(), flag, min);
  }
};

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

/// Adds one --sweep axis (axis=lo:hi:steps or axis=v1,v2,...) to `grid`.
/// A scheduler axis of bare kind names goes through the kind overload,
/// which keeps the base's --edf-own/--edf-cross factors; one containing
/// a "delta:<v>" spec replaces specs wholesale.
void add_sweep_axis(SweepGrid& grid, const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
    usage_error("bad --sweep spec '" + spec + "' (want axis=values)");
  }
  const std::string axis = spec.substr(0, eq);
  const std::string values = spec.substr(eq + 1);

  if (axis == "scheduler") {
    // Weight lists reuse the comma ("gps:1,2"), so the value list cannot
    // be split naively: parse_scheduler_list resolves the ambiguity by
    // maximal munch (each name claims the longest run that parses).
    std::vector<sched::SchedulerSpec> specs;
    if (!sched::parse_scheduler_list(values, specs)) {
      usage_error("bad scheduler list '" + values + "' in --sweep");
    }
    std::vector<sched::SchedulerKind> kinds;
    for (const sched::SchedulerSpec& s : specs) {
      sched::SchedulerKind k{};
      if (!sched::scheduler_kind_from_name(sched::to_string(s), k) ||
          k == sched::SchedulerKind::kDelta) {
        grid.scheduler_axis(specs);
        return;
      }
      kinds.push_back(k);
    }
    grid.scheduler_axis(kinds);
    return;
  }
  if (axis != "hops" && axis != "u0" && axis != "uc" && axis != "epsilon" &&
      axis != "capacity" && axis != "delta") {
    usage_error("unknown sweep axis '" + axis + "'");
  }
  std::vector<double> numeric;
  if (values.find(':') != std::string::npos) {
    const std::vector<std::string> parts = split(values, ':');
    if (parts.size() != 3) {
      usage_error("bad --sweep range '" + values + "' (want lo:hi:steps)");
    }
    const double lo = Arg{"--sweep", parts[0].c_str()}.real();
    const double hi = Arg{"--sweep", parts[1].c_str()}.real();
    const int steps = Arg{"--sweep steps", parts[2].c_str()}.integer(1);
    numeric = SweepGrid::linspace(lo, hi, steps);
  } else {
    for (const std::string& v : split(values, ',')) {
      numeric.push_back(Arg{"--sweep", v.c_str()}.real());
    }
  }
  if (axis == "hops") {
    // Every hops value -- listed, or produced by the range -- is a path
    // length: a fraction is an error, not a rounding.
    std::vector<int> hops;
    for (double v : numeric) hops.push_back(checked_int(v, "--sweep hops", 1));
    grid.hops_axis(hops);
  } else if (axis == "u0") {
    grid.through_utilization_axis(numeric);
  } else if (axis == "uc") {
    grid.cross_utilization_axis(numeric);
  } else if (axis == "epsilon") {
    grid.epsilon_axis(numeric);
  } else if (axis == "capacity") {
    grid.capacity_axis(numeric);
  } else {
    grid.delta_axis(numeric);
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
  const double lo = Arg{"--ccdf", parts[0].c_str()}.real();
  const double hi = Arg{"--ccdf", parts[1].c_str()}.real();
  const int n = Arg{"--ccdf points", parts[2].c_str()}.integer(1);
  if (static_cast<std::size_t>(n) > io::kMaxProfileLevels) {
    usage_error("--ccdf points must be at most " +
                std::to_string(io::kMaxProfileLevels));
  }
  if (!(lo > 0.0) || !(lo < 1.0) || !(hi > 0.0) || !(hi < 1.0)) {
    usage_error("--ccdf epsilons must be in (0, 1)");
  }
  if (n == 1) return {lo};
  // Evenly spaced in log(epsilon): the sweep's linspace, exponentiated.
  std::vector<double> eps = SweepGrid::linspace(std::log(lo), std::log(hi), n);
  for (double& e : eps) e = std::exp(e);
  return eps;
}

// ----- the flag table -----------------------------------------------------

/// The modes of one run.  The order is the selection rule: a run takes
/// the highest mode its flags select, and the modes from kReport on are
/// named by a flag of their own, so two of them on one line conflict.
enum Mode : unsigned {
  kPoint, kCsv, kCcdf, kSweep, kReport, kSelfcheck, kEmit, kBatch, kServe,
  kLint, kModeCount
};
constexpr const char* kModeNames[kModeCount] = {
    "point", "csv",  "ccdf",  "sweep", "report", "selfcheck",
    "emit",  "batch", "serve", "lint"};

template <typename... M>
constexpr unsigned modes(M... m) {
  return ((1u << m) | ...);
}
/// The modes that solve the scenario the scenario flags describe.
constexpr unsigned kScenario =
    modes(kPoint, kCsv, kCcdf, kReport, kSweep, kSelfcheck, kEmit);

/// Everything the flags set.  The utilization fractions and the EDF
/// factors reach `builder` after every other flag, so they convert
/// against the final capacity and outlive a later --scheduler.
struct Cli {
  ScenarioBuilder builder;
  std::optional<double> u0, uc;
  std::optional<sched::EdfFactors> edf;
  e2e::Method method = e2e::Method::kExactOpt;
  bool additive = false;
  bool csv = false;
  bool stats = false;
  long long simulate_slots = 0;
  int threads = 0;
  e2e::WarmStart warm_start = e2e::WarmStart::kWarm;
  std::vector<double> ccdf_epsilons;
  std::vector<std::string> sweep_axes;  ///< --sweep specs, in order
  std::string operand;  ///< the --batch / --lint-jsonl file, --serve socket
  std::string cache_dir;  ///< --cache-dir, else DELTANC_CACHE_DIR
  serve::ServeOptions serve;

  sched::EdfFactors& edf_factors() { return edf ? *edf : edf.emplace(); }
};

/// One flag: its spelling, its value's name (nullptr for a switch), the
/// modes that read it, its --help line, how it stores its value, and
/// the mode it selects (kPoint: none).
struct Flag {
  const char* name;
  const char* value;
  unsigned read_by;
  const char* help;
  void (*apply)(Cli& cli, Arg arg);
  Mode selects = kPoint;
};

constexpr Flag kFlags[] = {
    {"--capacity", "<Mbps>", kScenario, "link rate per node (default 100)",
     [](Cli& c, Arg a) { c.builder.capacity_mbps(a.real()); }},
    {"--hops", "<H>", kScenario, "path length (default 2)",
     [](Cli& c, Arg a) { c.builder.hops(a.integer<int>()); }},
    {"--n0", "<count>", kScenario, "through flows (default 100)",
     [](Cli& c, Arg a) { c.builder.through_flows(a.integer<int>()); }},
    {"--nc", "<count>", kScenario, "cross flows per node (default 100)",
     [](Cli& c, Arg a) { c.builder.cross_flows(a.integer<int>()); }},
    {"--u0", "<frac>", kScenario, "through load (overrides --n0)",
     [](Cli& c, Arg a) { c.u0 = a.real(); }},
    {"--uc", "<frac>", kScenario, "cross load (overrides --nc)",
     [](Cli& c, Arg a) { c.uc = a.real(); }},
    {"--epsilon", "<p>", kScenario, "violation probability (default 1e-9)",
     [](Cli& c, Arg a) { c.builder.violation_probability(a.real()); }},
    {"--scheduler", "<name>", kScenario, "see below (default fifo)",
     [](Cli& c, Arg a) {
       sched::SchedulerSpec s;
       if (!sched::parse_scheduler(a.text, s)) {
         usage_error("unknown scheduler '" + std::string(a.text) + "'");
       }
       c.builder.scheduler(s);
     }},
    {"--edf-own", "<f>", kScenario, "EDF own-deadline factor (default 1)",
     [](Cli& c, Arg a) { c.edf_factors().own_factor = a.real(); }},
    {"--edf-cross", "<f>", kScenario, "EDF cross-deadline factor (default 10)",
     [](Cli& c, Arg a) { c.edf_factors().cross_factor = a.real(); }},
    {"--method", "<name>",
     modes(kPoint, kCsv, kCcdf, kSweep, kSelfcheck, kEmit, kBatch, kServe),
     "exact | paper-k (default exact)",
     [](Cli& c, Arg a) {
       const std::string_view m = a.text;
       if (m != "exact" && m != "paper-k") {
         usage_error("unknown method '" + std::string(m) + "'");
       }
       c.method = m == "exact" ? e2e::Method::kExactOpt : e2e::Method::kPaperK;
     }},
    {"--additive", nullptr, modes(kPoint), "also print the additive baseline",
     [](Cli& c, Arg) { c.additive = true; }},
    {"--simulate", "<slots>", modes(kPoint, kReport),
     "validate the bound against a simulation that long",
     [](Cli& c, Arg a) { c.simulate_slots = a.integer<long long>(0); }},
    {"--stats", nullptr, modes(kPoint, kCsv, kCcdf, kSweep, kBatch),
     "print solver work counters (summed over all points)",
     [](Cli& c, Arg) { c.stats = true; }},
    {"--report", nullptr, modes(kReport), "print a full markdown report",
     nullptr, kReport},
    {"--csv", nullptr, modes(kCsv, kSweep),
     "print only CSV (one profile-CSV row, or the sweep's)",
     [](Cli& c, Arg) { c.csv = true; }, kCsv},
    {"--ccdf", "<lo:hi:pts>", modes(kCcdf, kSweep, kEmit),
     "the d(epsilon) profile on a log grid, pts <= 1024",
     [](Cli& c, Arg a) { c.ccdf_epsilons = parse_ccdf_spec(a.text); }, kCcdf},
    {"--warm-start", "<policy>", modes(kCcdf, kSweep),
     "warm | cold (default warm); cold = single-solve bits",
     [](Cli& c, Arg a) {
       const std::string_view p = a.text;
       if (p != "warm" && p != "cold") {
         usage_error("unknown --warm-start policy '" + std::string(p) +
                     "' (want warm or cold)");
       }
       c.warm_start =
           p == "warm" ? e2e::WarmStart::kWarm : e2e::WarmStart::kCold;
     }},
    {"--sweep", "<axis>=<spec>", modes(kSweep, kSelfcheck, kEmit),
     "add a sweep axis (repeatable; see below)",
     [](Cli& c, Arg a) { c.sweep_axes.push_back(a.text); }, kSweep},
    {"--threads", "<n>", modes(kSweep, kSelfcheck, kBatch, kServe),
     "workers (default DELTANC_THREADS, else all cores)",
     [](Cli& c, Arg a) { c.threads = a.integer<int>(1); }},
    {"--selfcheck", nullptr, modes(kSelfcheck),
     "verify solver invariants (Fig. 2-4 or --sweep grid)", nullptr,
     kSelfcheck},
    {"--emit-batch", nullptr, modes(kEmit),
     "print the scenario or --sweep grid as batch requests", nullptr, kEmit},
    {"--batch", "<file|->", modes(kBatch), "answer JSONL solve requests",
     [](Cli& c, Arg a) { c.operand = a.text; }, kBatch},
    {"--cache-dir", "<dir>", modes(kBatch, kServe),
     "result cache directory (default DELTANC_CACHE_DIR)",
     [](Cli& c, Arg a) { c.cache_dir = a.text; }},
    {"--lint-jsonl", "<file|->", modes(kLint),
     "check a request/response file; solve nothing",
     [](Cli& c, Arg a) { c.operand = a.text; }, kLint},
    {"--serve", "<socket>", modes(kServe),
     "serve JSONL requests on a Unix-domain socket",
     [](Cli& c, Arg a) { c.operand = a.text; }, kServe},
    {"--serve-workers", "<n>", modes(kServe),
     "worker (= cache shard) count (default: --threads)",
     [](Cli& c, Arg a) { c.serve.workers = a.integer<int>(1); }},
    {"--serve-queue", "<n>", modes(kServe), "per-worker queue depth (512)",
     [](Cli& c, Arg a) { c.serve.queue_depth = a.integer<std::size_t>(1); }},
    {"--serve-memory", "<n>", modes(kServe),
     "per-worker warm results in memory (65536; 0 = off)",
     [](Cli& c, Arg a) { c.serve.memory_entries = a.integer<std::size_t>(0); }},
    {"--deadline-ms", "<ms>", modes(kServe), "per-request deadline (none)",
     [](Cli& c, Arg a) {
       c.serve.deadline_ms = a.real();
       if (c.serve.deadline_ms <= 0) usage_error("--deadline-ms must be > 0");
     }},
    {"--fault-plan", "<spec>", modes(kServe),
     "fault injection: delay:<id>:<ms>;store-fail:<n>",
     [](Cli& c, Arg a) {
       std::string error;
       if (!serve::FaultPlan::parse(a.text, c.serve.faults, error)) {
         usage_error("--fault-plan: " + error);
       }
     }},
};

// The scheduler names come from the one registry
// (sched::scheduler_usage_names) so this text can never drift from it.
constexpr const char* kUsageFooter = R"(
A run has one mode.  --report, --selfcheck, --emit-batch, --batch, --serve
and --lint-jsonl each name theirs; otherwise --sweep selects sweep, then
--ccdf ccdf, then --csv csv; otherwise the mode is point.  A flag its
mode does not read is a usage error.

Schedulers: %s
  (delta:<Delta> is a fixed offset in ms, +/-inf allowed)
Sweep axes: hops, u0, uc, epsilon, capacity, delta, scheduler, each
  lo:hi:steps or v1,v2,...; axes cross-multiply in the order given

Exit codes: 0 all ok; 1 failed points / bound violated / self-check
issues / malformed batch lines; 2 usage error or invalid scenario;
3 completed but some points carry warnings or needed recoveries
(including corrupt-cache-entry re-solves and failed cache stores);
4 the output consumer hung up before every response was written.

  --help, -h             this text
)";

void print_usage(std::FILE* out) {
  std::fprintf(out, "usage: deltanc_cli [flags]\n\n");
  for (const Flag& flag : kFlags) {
    const std::string head = std::string(flag.name) + " " +
                             (flag.value != nullptr ? flag.value : "");
    std::fprintf(out, "  %-22s %s\n%25smodes:", head.c_str(), flag.help, "");
    for (unsigned m = 0; m < kModeCount; ++m) {
      if ((flag.read_by & modes(m)) == 0) continue;
      std::fprintf(out, " %s", kModeNames[m]);
    }
    std::fprintf(out, "\n");
  }
  std::fprintf(out, kUsageFooter, sched::scheduler_usage_names().c_str());
}

/// Reads the command line into `cli` and returns its mode: every flag
/// has its say in the mode first, then each is checked against it and
/// applied in command-line order.
Mode parse_command_line(int argc, char** argv, Cli& cli) {
  std::vector<std::pair<const Flag*, Arg>> given;
  Mode mode = kPoint;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      std::exit(0);
    }
    const Flag* flag =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const Flag& f) { return arg == f.name; });
    if (flag == std::end(kFlags)) {
      usage_error("unknown flag '" + std::string(arg) + "'");
    }
    if (flag->value != nullptr && i + 1 >= argc) {
      usage_error("missing value after " + std::string(arg));
    }
    given.push_back({flag, Arg{flag->name, flag->value ? argv[++i] : nullptr}});
    if (flag->selects >= kReport && mode >= kReport && flag->selects != mode) {
      usage_error(std::string(flag->name) + " cannot be combined with " +
                  kModeNames[mode] + " mode");
    }
    mode = std::max(mode, flag->selects);
  }
  for (const auto& [flag, arg] : given) {
    if ((flag->read_by & modes(mode)) == 0) {
      usage_error(std::string(flag->name) + " is not read in " +
                  kModeNames[mode] + " mode");
    }
    if (flag->apply != nullptr) flag->apply(cli, arg);
  }
  return mode;
}

/// One "warning: <tag><kind>: <detail>" line on stderr per diagnostic
/// warning.
void print_warnings(const e2e::BoundResult& bound, const char* tag = "") {
  for (const diag::Warning& w : bound.diagnostics.warnings) {
    std::fprintf(stderr, "warning: %s%s: %s\n", tag,
                 diag::solve_error_name(w.kind), w.message.c_str());
  }
}

void print_progress(std::size_t done, std::size_t total) {
  std::fprintf(stderr, "\rsolving %zu/%zu", done, total);
  if (done == total) std::fprintf(stderr, "\n");
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
/// --ccdf grid turns every line into a profile request.
int run_emit_batch(const SweepGrid& grid, const Cli& cli) {
  SolveOptions options;
  options.method = cli.method;
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
    if (!cli.ccdf_epsilons.empty()) {
      req += ",\"epsilons\":[";
      for (std::size_t k = 0; k < cli.ccdf_epsilons.size(); ++k) {
        if (k > 0) req += ',';
        io::json::append_number(req, cli.ccdf_epsilons[k]);
      }
      req += ']';
    }
    req += "}\n";
    std::cout << req;
  }
  std::fprintf(stderr, "emit-batch: %zu request(s)%s\n", n,
               cli.ccdf_epsilons.empty() ? "" : " (profile)");
  return 0;
}

/// The "cache:" narration line of --batch and --serve.
void print_cache_stats(const std::filesystem::path& dir,
                       const io::CacheStats& cs) {
  std::fprintf(stderr,
               "cache: dir=%s hits=%lld misses=%lld stale=%lld "
               "corrupt=%lld stores=%lld store_failures=%lld\n",
               dir.c_str(), static_cast<long long>(cs.hits),
               static_cast<long long>(cs.misses),
               static_cast<long long>(cs.stale),
               static_cast<long long>(cs.corrupt),
               static_cast<long long>(cs.stores),
               static_cast<long long>(cs.store_failures));
}

/// --batch: JSONL requests in, JSONL responses out (stdout stays pure;
/// the summary, cache traffic, and stats land on stderr).
int run_batch_mode(const Cli& cli) {
  std::ifstream file;
  std::istream* in = open_input(cli.operand, file);
  if (in == nullptr) return 2;

  std::optional<io::ResultCache> cache;
  if (!cli.cache_dir.empty()) {
    try {
      cache.emplace(cli.cache_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "deltanc_cli: %s\n", e.what());
      return 2;
    }
  }

  io::BatchOptions options;
  options.threads = cli.threads;
  options.default_method = cli.method;
  options.cache = cache.has_value() ? &*cache : nullptr;
  options.progress = print_progress;

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
    print_cache_stats(cache->directory(), cs);
    if (cs.store_failures > 0) {
      std::fprintf(stderr,
                   "warning: %lld cache store(s) failed; those results were "
                   "solved through and answered uncached\n",
                   static_cast<long long>(cs.store_failures));
    }
  }
  if (cli.stats) print_stats(summary.stats, stderr);
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

/// --lint-jsonl: every non-blank line must be a request that --batch
/// would parse (io::parse_request_line), or, when it carries "ok", a
/// response: ok:true with exactly one decodable "result" / "profile",
/// ok:false with a string "error".
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
      const io::json::Node ok = root.find("ok");
      const io::json::Node result = root.find("result");
      const io::json::Node profile = root.find("profile");
      if (!ok) {
        (void)io::parse_request_line(line, e2e::Method::kExactOpt);
      } else if (!ok.as_bool()) {
        (void)root.at("error").as_string();
      } else if (static_cast<bool>(result) == static_cast<bool>(profile)) {
        throw io::CodecError("ok:true needs either \"result\" or \"profile\"");
      } else if (result) {
        (void)io::decode_bound_result(result);
      } else {
        (void)io::decode_delay_profile(profile);
      }
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

/// --serve: the persistent solve service on a Unix-domain socket.
/// Returns 0 on a clean SIGTERM/SIGINT drain (every accepted request
/// answered), 2 when the socket or cache directory cannot be set up.
int run_serve_mode(const Cli& cli) {
  serve::ServeOptions options = cli.serve;
  if (options.workers == 0) options.workers = cli.threads;
  options.default_method = cli.method;
  options.cache_dir = cli.cache_dir;

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
               cli.operand.c_str(), service->workers(), options.queue_depth,
               options.deadline_ms > 0
                   ? (std::to_string(options.deadline_ms) + " ms").c_str()
                   : "off",
               options.cache_dir.empty() ? "off"
                                         : options.cache_dir.c_str(),
               options.faults.empty() ? "" : ", faults ",
               options.faults.empty() ? ""
                                      : options.faults.to_string().c_str());

  serve::ListenerOptions listener;
  listener.socket_path = cli.operand;
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
    print_cache_stats(options.cache_dir, stats.cache);
  }
  return clean ? 0 : 2;
}

/// One scenario's d(epsilon) profile as the profile CSV on stdout: the
/// --ccdf output, and the one-level shape of a single-point --csv row.
void write_profile_csv(const e2e::Scenario& scenario,
                       e2e::DelayProfile profile) {
  SweepReport one;
  one.points.resize(1);
  one.points[0].scenario = scenario;
  one.points[0].profile =
      std::make_shared<const e2e::DelayProfile>(std::move(profile));
  one.write_profile_csv(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
#ifdef SIGPIPE
  // A consumer hanging up mid-pipe (`--batch | head`, a serve client
  // disconnecting) must surface as a classified exit code, not a
  // SIGPIPE death: writes fail with EPIPE / a bad stream instead.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  Cli cli;
  const Mode mode = parse_command_line(argc, argv, cli);
  // --cache-dir wins over DELTANC_CACHE_DIR; neither set = no caching.
  if (cli.cache_dir.empty()) {
    cli.cache_dir = io::ResultCache::directory_from_env({});
  }

  // build() collects *all* violations in one pass, so a malformed
  // invocation reports every bad field at once (exit code 2, like other
  // usage errors, but without drowning the message in the flag table).
  e2e::Scenario scenario;
  try {
    if (cli.u0) cli.builder.through_utilization(*cli.u0);
    if (cli.uc) cli.builder.cross_utilization(*cli.uc);
    if (cli.edf) {
      cli.builder.edf_deadlines(cli.edf->own_factor, cli.edf->cross_factor);
    }
    scenario = cli.builder.build();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "deltanc_cli: invalid scenario: %s\n", e.what());
    return 2;
  }

  if (mode == kLint) return run_lint_jsonl(cli.operand);
  if (mode == kServe) return run_serve_mode(cli);
  if (mode == kBatch) return run_batch_mode(cli);
  SweepGrid grid(scenario);  // the scenario alone without --sweep
  for (const std::string& spec : cli.sweep_axes) add_sweep_axis(grid, spec);
  if (mode == kEmit) return run_emit_batch(grid, cli);

  if (mode == kSelfcheck) {
    SelfCheckOptions options;
    options.threads = cli.threads;
    options.method = cli.method;
    SelfCheckReport report;
    if (!cli.sweep_axes.empty()) {
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

  if (mode == kSweep) {
    // Narration always goes to stderr so `--csv` (and plain sweeps piped
    // somewhere) keep stdout machine-parseable.
    std::fprintf(stderr, "base ");
    print_scenario(scenario, stderr);
    std::fprintf(stderr, "sweep: %zu points (", grid.size());
    for (std::size_t a = 0; a < grid.axes(); ++a) {
      std::fprintf(stderr, "%s%s:%zu", a ? " x " : "",
                   grid.axis_name(a).c_str(), grid.axis_size(a));
    }
    std::fprintf(stderr, ")\n");

    SweepOptions opts;
    opts.threads = cli.threads;
    opts.method = cli.method;
    opts.warm_start = cli.warm_start;
    opts.profile_epsilons = cli.ccdf_epsilons;
    opts.progress = print_progress;
    const SweepReport report = SweepRunner(opts).run(grid);

    if (cli.csv) {
      // With --ccdf the profile CSV *is* the machine output (one header,
      // one row per point x level); without it, the scalar sweep CSV.
      if (!cli.ccdf_epsilons.empty()) {
        report.write_profile_csv(std::cout);
      } else {
        report.write_csv(std::cout);
      }
    } else {
      report.to_table().print(std::cout);
      std::printf("\ncsv:\n");
      report.write_csv(std::cout);
      if (!cli.ccdf_epsilons.empty()) {
        std::printf("\nprofile csv:\n");
        report.write_profile_csv(std::cout);
      }
    }
    std::fprintf(stderr,
                 "sweep: %zu points in %.0f ms on %d thread(s), chains=%zu; "
                 "%zu unstable, %zu failed, %zu warned, %zu recovered\n",
                 report.points.size(), report.wall_ms, report.threads,
                 report.chains, report.unstable(), report.failures(),
                 report.warned(), report.recovered());
    const diag::ErrorCounts counts = report.counts_by_kind();
    if (counts.total_errors() + counts.total_warnings() > 0) {
      std::fprintf(stderr, "diagnostics: %s\n", counts.summary().c_str());
    }
    if (counts.warnings[static_cast<std::size_t>(
            diag::SolveErrorKind::kNoConvergence)] > 0) {
      std::fprintf(stderr,
                   "warning: some EDF fixed points did not converge; their "
                   "bounds use the last iterate (see the warn: rows)\n");
    }
    if (cli.stats) print_stats(report.stats, stderr);
    if (report.failures() > 0) return 1;
    return (report.warned() + report.recovered() > 0) ? 3 : 0;
  }

  if (mode == kCcdf) {
    // stdout carries only the profile CSV; narration goes to stderr.
    print_scenario(scenario, stderr);
    SolveOptions profile_options;
    profile_options.method = cli.method;
    profile_options.warm_start = cli.warm_start;
    const Solver solver(profile_options);
    e2e::DelayProfile profile;
    try {
      profile = solver.solve_profile(scenario, cli.ccdf_epsilons);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "deltanc_cli: profile solve failed: %s\n",
                   e.what());
      return 1;
    }
    write_profile_csv(scenario, profile);
    for (std::size_t i = 0; i < profile.levels.size(); ++i) {
      char tag[40];
      std::snprintf(tag, sizeof tag, "[eps=%g] ", profile.epsilons[i]);
      print_warnings(profile.levels[i], tag);
    }
    if (cli.stats) print_stats(profile.stats, stderr);
    // Stability (and hence finiteness) does not depend on epsilon, so
    // the first level speaks for the whole profile.
    return std::isfinite(profile.levels.front().delay_ms) ? 0 : 1;
  }

  if (mode == kReport) {
    ReportOptions options;
    options.simulate_slots = cli.simulate_slots;
    try {
      std::printf("%s", render_report(scenario, options).c_str());
    } catch (const std::invalid_argument& e) {
      simulate_error(e);
    }
    return 0;
  }
  const PathAnalyzer analyzer(scenario);

  if (mode == kCsv) {
    // One row in the profile CSV shape, carrying the scalar solve at the
    // scenario's own epsilon -- byte-comparable against any --ccdf level
    // of the same scenario (scripts/check.sh gates on exactly that).
    print_scenario(scenario, stderr);
    const e2e::BoundResult bound = analyzer.bound(cli.method);
    e2e::DelayProfile single;
    single.epsilons = {scenario.epsilon};
    single.levels = {bound};
    write_profile_csv(scenario, std::move(single));
    print_warnings(bound);
    if (cli.stats) print_stats(bound.stats, stderr);
    return std::isfinite(bound.delay_ms) ? 0 : 1;
  }

  print_scenario(scenario);

  const e2e::BoundResult bound = analyzer.bound(cli.method);
  if (!std::isfinite(bound.delay_ms)) {
    std::printf("bound: %s\n",
                bound.diagnostics.ok()
                    ? "unstable configuration (offered load >= capacity)"
                    : bound.diagnostics.message.c_str());
    return 1;
  }
  // Curve-backed schedulers have no Delta coordinate (bound.delta is
  // NaN by contract).
  char delta[32] = "n/a";
  if (!scenario.scheduler.is_curve_backed()) {
    std::snprintf(delta, sizeof delta, "%g", bound.delta);
  }
  std::printf("end-to-end delay bound: %.3f ms  "
              "(gamma = %.4f, s = %.4f, Delta = %s)\n",
              bound.delay_ms, bound.gamma, bound.s, delta);
  print_warnings(bound);
  if (cli.stats) print_stats(bound.stats, stderr);

  if (cli.additive) {
    std::printf("additive per-node baseline (BMUX): %.3f ms\n",
                analyzer.additive_bound().delay_ms);
  }
  if (cli.simulate_slots > 0) {
    ValidationReport r{};
    try {
      r = analyzer.validate(cli.simulate_slots, 1, &bound);
    } catch (const std::invalid_argument& e) {
      simulate_error(e);
    }
    std::printf("simulation (%lld slots): quantile@%.2e = %.2f ms, "
                "max = %.2f ms, bound@%.2e = %.3f ms %s\n",
                cli.simulate_slots, r.epsilon_sim, r.empirical_quantile,
                r.empirical_max, r.epsilon_sim, r.bound_at_eps_sim,
                r.bound_holds ? "holds" : "VIOLATED");
    return r.bound_holds ? 0 : 1;
  }
  return 0;
}
