#include "core/sweep.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/scenario.h"
#include "core/thread_pool.h"
#include "e2e/solver.h"

namespace deltanc {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One point through the classification rule (classified_solve,
/// e2e/solver.h): a malformed or throwing point is classified and keeps
/// the +inf bound; it never aborts the sweep.
template <typename SolveFn>
void solve_point(SweepPoint& p, const e2e::Scenario& sc, SolveFn&& solve) {
  p.scenario = sc;
  const auto task_t0 = Clock::now();
  if (auto failed = classified_solve(p.scenario, [&](const e2e::Scenario& s) {
        p.bound = solve(s);
      })) {
    p.ok = false;
    p.error = failed->diagnostics.message;
    p.bound = std::move(*failed);
  }
  p.solve_ms = ms_since(task_t0);
}

/// Profile companion of solve_point: attaches the d(epsilon) artifact to
/// an already-solved point.  Runs only for points whose scenario
/// validated (an unstable-but-well-formed point still profiles: every
/// level classifies its +inf); a profile solve that throws fails the
/// point like a scalar throw would.
template <typename ProfileFn>
void attach_profile(SweepPoint& p, ProfileFn&& solve_profile) {
  if (!p.ok) return;
  const auto task_t0 = Clock::now();
  try {
    p.profile =
        std::make_shared<const e2e::DelayProfile>(solve_profile(p.scenario));
  } catch (const std::exception& e) {
    p.ok = false;
    p.error = e.what();
  }
  p.solve_ms += ms_since(task_t0);
}

/// The longest run of points one Solver::State threads through.  A warm
/// chain of L points runs as ceil(L / kMaxSegment) near-equal segments,
/// each headed by a cold solve: a shorter segment shortens the sweep's
/// critical path (one EDF chain of a Fig. 2/4 grid) but adds cold heads
/// (splitting 12 points 6 + 6 costs ~4 % more optimizer work).  6 keeps
/// axes of up to 6 points whole; 4 ran the `figures` benchmark faster
/// still, but its harness keeps every repetition, so peak RSS rose past
/// the benchmark's 15 % bound (EXPERIMENTS.md, "Chain segments").
constexpr std::size_t kMaxSegment = 6;

/// A run of `length` points, `stride` apart in the flat enumeration from
/// `first`, solved sequentially through one Solver::State.
struct Segment {
  std::size_t first = 0;
  std::size_t length = 0;
};

/// Decomposes `n` points into `n / chain_len` chains (consecutive
/// members `stride` apart; chain c fixes the outer axes at digit
/// c / stride and the inner ones at c % stride) and splits each chain
/// into near-equal consecutive segments of at most kMaxSegment points,
/// in grid order.  The split depends on the grid alone.
std::vector<Segment> split_chains(std::size_t n, std::size_t chain_len,
                                  std::size_t stride) {
  const std::size_t n_chains = n / chain_len;
  const std::size_t parts = (chain_len + kMaxSegment - 1) / kMaxSegment;
  std::vector<Segment> segments;
  segments.reserve(n_chains * parts);
  for (std::size_t c = 0; c < n_chains; ++c) {
    std::size_t first = (c / stride) * (chain_len * stride) + (c % stride);
    for (std::size_t j = 0; j < parts; ++j) {
      const std::size_t length =
          chain_len / parts + (j < chain_len % parts ? 1 : 0);
      segments.push_back({first, length});
      first += length * stride;
    }
  }
  return segments;
}

}  // namespace

// ---------------------------------------------------------------- SweepGrid

SweepGrid::SweepGrid(e2e::Scenario base) : base_(std::move(base)) {}

SweepGrid& SweepGrid::add_axis(Axis axis) {
  axes_.push_back(std::move(axis));
  return *this;
}

SweepGrid& SweepGrid::hops_axis(std::vector<int> values) {
  Axis a{"hops", {}, true};
  for (int h : values) {
    if (h < 1) throw std::invalid_argument("SweepGrid: hops must be >= 1");
    a.values.emplace_back([h](e2e::Scenario& sc) { sc.hops = h; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::scheduler_axis(std::vector<sched::SchedulerSpec> values) {
  Axis a{"scheduler", {}, false};
  for (const sched::SchedulerSpec& s : values) {
    // Full identity replacement (factors and fixed offsets included).
    a.values.emplace_back([s](e2e::Scenario& sc) { sc.scheduler = s; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::scheduler_axis(std::vector<sched::SchedulerKind> values) {
  Axis a{"scheduler", {}, false};
  for (sched::SchedulerKind k : values) {
    // Kind re-assignment: keeps the base scenario's EDF factors, so this
    // axis composes with edf_axis / edf_deadlines in either order.
    a.values.emplace_back([k](e2e::Scenario& sc) { sc.scheduler = k; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::edf_axis(std::vector<sched::EdfFactors> values) {
  Axis a{"edf", {}, false};
  for (const sched::EdfFactors& e : values) {
    if (!(e.own_factor > 0.0) || !(e.cross_factor > 0.0)) {
      throw std::invalid_argument("SweepGrid: EDF factors must be > 0");
    }
    a.values.emplace_back(
        [e](e2e::Scenario& sc) { sc.scheduler.set_edf_factors(e); });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::delta_axis(std::vector<double> values) {
  Axis a{"delta", {}, true};
  for (double d : values) {
    if (d != d) throw std::invalid_argument("SweepGrid: delta must not be NaN");
    a.values.emplace_back([d](e2e::Scenario& sc) {
      sc.scheduler = sched::SchedulerSpec::fixed_delta(d);
    });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::through_flows_axis(std::vector<int> values) {
  Axis a{"n0", {}, true};
  for (int n : values) {
    if (n < 1) throw std::invalid_argument("SweepGrid: need >= 1 through flow");
    a.values.emplace_back([n](e2e::Scenario& sc) { sc.n_through = n; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::cross_flows_axis(std::vector<int> values) {
  Axis a{"nc", {}, true};
  for (int n : values) {
    if (n < 0) throw std::invalid_argument("SweepGrid: cross flows >= 0");
    a.values.emplace_back([n](e2e::Scenario& sc) { sc.n_cross = n; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::through_utilization_axis(std::vector<double> values) {
  Axis a{"u0", {}, true};
  for (double u : values) {
    // Conversion against the *base* capacity/source, exactly like
    // ScenarioBuilder::through_utilization.
    const int n = std::max(1, flows_for_utilization(base_, u));
    a.values.emplace_back([n](e2e::Scenario& sc) { sc.n_through = n; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::cross_utilization_axis(std::vector<double> values) {
  Axis a{"uc", {}, true};
  for (double u : values) {
    const int n = flows_for_utilization(base_, u);
    a.values.emplace_back([n](e2e::Scenario& sc) { sc.n_cross = n; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::epsilon_axis(std::vector<double> values) {
  Axis a{"epsilon", {}, true};
  for (double eps : values) {
    if (!(eps > 0.0 && eps < 1.0)) {
      throw std::invalid_argument("SweepGrid: need 0 < epsilon < 1");
    }
    a.values.emplace_back([eps](e2e::Scenario& sc) { sc.epsilon = eps; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::capacity_axis(std::vector<double> values) {
  Axis a{"capacity", {}, true};
  for (double c : values) {
    if (!(c > 0.0)) throw std::invalid_argument("SweepGrid: capacity > 0");
    a.values.emplace_back([c](e2e::Scenario& sc) { sc.capacity = c; });
  }
  return add_axis(std::move(a));
}

std::vector<double> SweepGrid::linspace(double lo, double hi, int steps) {
  if (steps < 1) throw std::invalid_argument("linspace: steps must be >= 1");
  if (steps == 1) return {lo};
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    v.push_back(lo + (hi - lo) * static_cast<double>(i) /
                         static_cast<double>(steps - 1));
  }
  return v;
}

std::size_t SweepGrid::axis_size(std::size_t a) const {
  return axes_.at(a).values.size();
}

const std::string& SweepGrid::axis_name(std::size_t a) const {
  return axes_.at(a).name;
}

bool SweepGrid::axis_numeric(std::size_t a) const {
  return axes_.at(a).numeric;
}

std::size_t SweepGrid::size() const noexcept {
  std::size_t n = 1;
  for (const Axis& a : axes_) n *= a.values.size();
  return n;
}

e2e::Scenario SweepGrid::scenario_at(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("SweepGrid: index out of range");
  e2e::Scenario sc = base_;
  // Row-major decode, last axis fastest: peel digits from the innermost
  // axis, then apply mutators outermost-first.  Most axes touch disjoint
  // fields; where they overlap (a full-spec scheduler axis and an edf
  // axis both carry EDF factors) the later-added axis wins.
  std::vector<std::size_t> digit(axes_.size());
  for (std::size_t a = axes_.size(); a-- > 0;) {
    const std::size_t m = axes_[a].values.size();
    digit[a] = i % m;
    i /= m;
  }
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    axes_[a].values[digit[a]](sc);
  }
  return sc;
}

std::vector<e2e::Scenario> SweepGrid::scenarios() const {
  std::vector<e2e::Scenario> out;
  const std::size_t n = size();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(scenario_at(i));
  return out;
}

// -------------------------------------------------------------- SweepReport

std::size_t SweepReport::failures() const {
  std::size_t n = 0;
  for (const SweepPoint& p : points) n += p.ok ? 0 : 1;
  return n;
}

std::size_t SweepReport::unstable() const {
  std::size_t n = 0;
  for (const SweepPoint& p : points) {
    n += (p.ok && !std::isfinite(p.bound.delay_ms)) ? 1 : 0;
  }
  return n;
}

std::size_t SweepReport::warned() const {
  std::size_t n = 0;
  for (const SweepPoint& p : points) {
    n += (p.ok && !p.bound.diagnostics.warnings.empty()) ? 1 : 0;
  }
  return n;
}

std::size_t SweepReport::recovered() const {
  std::size_t n = 0;
  for (const SweepPoint& p : points) {
    n += (p.ok && p.bound.stats.retries + p.bound.stats.fallbacks > 0) ? 1 : 0;
  }
  return n;
}

diag::ErrorCounts SweepReport::counts_by_kind() const {
  diag::ErrorCounts counts;
  for (const SweepPoint& p : points) {
    if (!p.ok) {
      // A failed point always counts as an error, even when a custom
      // solver threw without classifying itself first.
      counts.record_error(p.bound.diagnostics.ok()
                              ? diag::SolveErrorKind::kNumericalDomain
                              : p.bound.diagnostics.error);
      continue;
    }
    counts.record(p.bound.diagnostics);
    if (!std::isfinite(p.bound.delay_ms) && p.bound.diagnostics.ok()) {
      // +inf from a solver that did not classify it (e.g. the additive
      // baseline): the only theory-sanctioned +inf is an unstable load.
      counts.record_error(diag::SolveErrorKind::kUnstable);
    }
  }
  return counts;
}

Table SweepReport::to_table(int precision) const {
  Table table({"#", "H", "sched", "N0", "Nc", "U [%]", "eps", "delay [ms]",
               "gamma", "s", "Delta", "solve [ms]", "status"});
  const auto format_eps = [](double eps) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", eps);
    return std::string(buf);
  };
  const auto status_of = [](const SweepPoint& p) -> std::string {
    if (!p.ok) return "error: " + p.error;
    if (!std::isfinite(p.bound.delay_ms)) return "unstable";
    if (!p.bound.diagnostics.warnings.empty()) {
      return std::string("warn: ") +
             diag::solve_error_name(p.bound.diagnostics.warnings.front().kind);
    }
    return "ok";
  };
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    const e2e::Scenario& sc = p.scenario;
    table.add_row({std::to_string(i), std::to_string(sc.hops),
                   sched::to_string(sc.scheduler), std::to_string(sc.n_through),
                   std::to_string(sc.n_cross),
                   Table::format(100.0 * sc.utilization(), 1),
                   format_eps(sc.epsilon),
                   Table::format(p.bound.delay_ms, precision),
                   Table::format(p.bound.gamma, precision),
                   Table::format(p.bound.s, precision),
                   Table::format(p.bound.delta, precision),
                   Table::format(p.solve_ms, 2), status_of(p)});
  }
  return table;
}

void SweepReport::write_csv(std::ostream& os, int precision) const {
  to_table(precision).print_csv(os);
}

void SweepReport::write_profile_csv(std::ostream& os) const {
  os << "point,hops,scheduler,n0,nc,u_pct,epsilon,delay_ms,gamma,s,sigma,"
        "delta\n";
  // Scheduler names can carry commas ("gps:1,2"); everything else in a
  // row is numeric, so only that cell needs RFC-4180 quoting.
  const auto escape = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
    std::string quoted = "\"";
    for (char ch : cell) {
      if (ch == '"') quoted.push_back('"');
      quoted.push_back(ch);
    }
    quoted.push_back('"');
    return quoted;
  };
  char buf[320];
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    if (!p.profile) continue;
    const e2e::Scenario& sc = p.scenario;
    const std::string sched = escape(sched::to_string(sc.scheduler));
    for (std::size_t k = 0; k < p.profile->levels.size(); ++k) {
      const e2e::BoundResult& b = p.profile->levels[k];
      std::snprintf(buf, sizeof buf,
                    "%zu,%d,%s,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,"
                    "%.17g\n",
                    i, sc.hops, sched.c_str(), sc.n_through, sc.n_cross,
                    100.0 * sc.utilization(), p.profile->epsilons[k],
                    b.delay_ms, b.gamma, b.s, b.sigma, b.delta);
      os << buf;
    }
  }
}

// -------------------------------------------------------------- SweepRunner

SweepRunner::SweepRunner(SweepOptions options) : options_(std::move(options)) {}

int SweepRunner::resolved_threads(std::size_t n_tasks) const {
  return static_cast<int>(resolve_threads(
      static_cast<unsigned>(std::max(options_.threads, 0)), n_tasks));
}

SweepReport SweepRunner::run(const SweepGrid& grid) const {
  const std::vector<e2e::Scenario> scenarios = grid.scenarios();
  // Warm-start chaining decomposes the grid along its innermost numeric
  // axis (the last-added one with more than one value): consecutive
  // values of that axis differ in a single parameter, which is exactly
  // what the Solver::State hints survive.  Non-numeric axes (scheduler,
  // edf) are excluded -- chaining across them would seed e.g. an EDF
  // fixed point from a FIFO optimum.  A grid with no such axis (or a
  // custom per-point solver, or warm_start = kCold) runs chains of one.
  if (options_.warm_start == e2e::WarmStart::kWarm && !options_.solver) {
    std::size_t stride = 1;
    for (std::size_t a = grid.axes(); a-- > 0;) {
      const std::size_t len = grid.axis_size(a);
      if (grid.axis_numeric(a) && len > 1) {
        return run_chains(scenarios, len, stride);
      }
      stride *= len;
    }
  }
  return run_chains(scenarios, 1, 1);
}

SweepReport SweepRunner::run(std::span<const e2e::Scenario> scenarios) const {
  return run_chains(scenarios, 1, 1);
}

SweepReport SweepRunner::run_chains(std::span<const e2e::Scenario> scenarios,
                                    std::size_t chain_len,
                                    std::size_t stride) const {
  const std::size_t n = scenarios.size();
  const std::vector<Segment> segments = split_chains(n, chain_len, stride);
  SweepReport report;
  report.points.resize(n);
  report.chains = segments.size();
  report.threads = resolved_threads(segments.size());
  const auto t0 = Clock::now();

  // Only a real chain consumes the state it threads; chains of one run
  // kCold, where solve(sc, state) and solve_profile(sc, eps, state) are
  // bit-identical to the stateless calls (each profile is then pinned
  // to the scalar solves of its levels).
  SolveOptions solve_options;
  solve_options.method = options_.method;
  solve_options.warm_start =
      chain_len > 1 ? e2e::WarmStart::kWarm : e2e::WarmStart::kCold;
  const Solver solver(solve_options);
  const bool profiles = !options_.profile_epsilons.empty() && !options_.solver;
  ProgressCounter progress(options_.progress, n);

  // Workers claim segments in grid order.  Claiming EDF segments first
  // ran the `figures` benchmark ~10 % faster, but its harness keeps every
  // repetition, so peak RSS then read at the benchmark's 15 % bound
  // (EXPERIMENTS.md, "Chain segments").
  //
  // Every segment is solved sequentially by whichever worker claimed it,
  // threading one Solver::State from each point to its successor, and
  // writes only its own points' slots: the results depend on the grid
  // alone, never on the worker count, and come back in input order.
  parallel_for(segments.size(), static_cast<unsigned>(report.threads),
               [&](std::size_t s) {
    const Segment& segment = segments[s];
    Solver::State state;
    for (std::size_t k = 0; k < segment.length; ++k) {
      const std::size_t i = segment.first + k * stride;
      SweepPoint& p = report.points[i];
      solve_point(p, scenarios[i], [&](const e2e::Scenario& sc) {
        return options_.solver ? options_.solver(sc, options_.method)
                               : solver.solve(sc, state);
      });
      if (profiles) {
        // The profile shares the segment state: under kWarm its first
        // level warms from the scalar solve above, and the state then
        // carries the last level's hints to the next point (hints only
        // seed the search, so one from another epsilon is safe).
        attach_profile(p, [&](const e2e::Scenario& sc) {
          return solver.solve_profile(sc, options_.profile_epsilons, state);
        });
      }
      progress.tick();
    }
  });

  report.wall_ms = ms_since(t0);
  for (const SweepPoint& p : report.points) {
    report.solve_ms += p.solve_ms;
    report.stats += p.bound.stats;
    if (p.profile) report.stats += p.profile->stats;
  }
  return report;
}

}  // namespace deltanc
