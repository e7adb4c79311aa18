#include "core/sweep.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
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

/// Validate-then-solve of one point, shared by the cold and chained
/// executors: a malformed point is classified (with a message naming
/// every bad field) instead of surfacing as whichever exception the
/// solver happens to hit first; a solve that still throws is captured
/// and never aborts the sweep.
template <typename SolveFn>
void solve_point(SweepPoint& p, const e2e::Scenario& sc, SolveFn&& solve) {
  p.scenario = sc;
  const auto task_t0 = Clock::now();
  const diag::ValidationReport vr = p.scenario.validate();
  if (!vr.ok()) {
    p.ok = false;
    p.error = vr.message();
    p.bound = e2e::BoundResult{std::numeric_limits<double>::infinity(), 0.0,
                               0.0, 0.0, 0.0};
    p.bound.diagnostics.fail(diag::SolveErrorKind::kInvalidScenario,
                             vr.message());
  } else {
    try {
      p.bound = solve(p.scenario);
    } catch (const std::exception& e) {
      p.ok = false;
      p.error = e.what();
      p.bound = e2e::BoundResult{std::numeric_limits<double>::infinity(), 0.0,
                                 0.0, 0.0, 0.0};
      p.bound.diagnostics.fail(diag::SolveErrorKind::kNumericalDomain,
                               e.what());
    }
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

}  // namespace

std::string scheduler_name(const sched::SchedulerSpec& s) {
  return sched::to_string(s);
}

bool scheduler_from_name(const std::string& name, sched::SchedulerSpec& out) {
  return sched::parse_scheduler(name, out);
}

bool scheduler_from_name(const std::string& name, sched::SchedulerKind& out) {
  return sched::scheduler_kind_from_name(name, out) &&
         out != sched::SchedulerKind::kDelta;
}

// ---------------------------------------------------------------- SweepGrid

SweepGrid::SweepGrid(e2e::Scenario base) : base_(std::move(base)) {}

SweepGrid& SweepGrid::add_axis(Axis axis) {
  axes_.push_back(std::move(axis));
  return *this;
}

SweepGrid& SweepGrid::hops_axis(std::vector<int> values) {
  Axis a{"hops", {}, {}};
  a.spec.name = "hops";
  for (int h : values) {
    a.spec.numeric.push_back(h);
    if (h < 1) throw std::invalid_argument("SweepGrid: hops must be >= 1");
    a.values.emplace_back([h](e2e::Scenario& sc) { sc.hops = h; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::scheduler_axis(std::vector<sched::SchedulerSpec> values) {
  Axis a{"scheduler", {}, {}};
  a.spec.name = "scheduler";
  a.spec.schedulers = values;
  for (const sched::SchedulerSpec& s : values) {
    // Full identity replacement (factors and fixed offsets included).
    a.values.emplace_back([s](e2e::Scenario& sc) { sc.scheduler = s; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::scheduler_axis(std::vector<sched::SchedulerKind> values) {
  Axis a{"scheduler", {}, {}};
  a.spec.name = "scheduler";
  a.spec.scheduler_kinds_only = true;
  for (sched::SchedulerKind k : values) {
    a.spec.schedulers.emplace_back(k);
    // Kind re-assignment: keeps the base scenario's EDF factors, so this
    // axis composes with edf_axis / edf_deadlines in either order.
    a.values.emplace_back([k](e2e::Scenario& sc) { sc.scheduler = k; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::edf_axis(std::vector<sched::EdfFactors> values) {
  Axis a{"edf", {}, {}};
  a.spec.name = "edf";
  a.spec.edf = values;
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
  Axis a{"delta", {}, {}};
  a.spec.name = "delta";
  a.spec.numeric = values;
  for (double d : values) {
    if (d != d) throw std::invalid_argument("SweepGrid: delta must not be NaN");
    a.values.emplace_back([d](e2e::Scenario& sc) {
      sc.scheduler = sched::SchedulerSpec::fixed_delta(d);
    });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::through_flows_axis(std::vector<int> values) {
  Axis a{"n0", {}, {}};
  a.spec.name = "n0";
  for (int n : values) {
    if (n < 1) throw std::invalid_argument("SweepGrid: need >= 1 through flow");
    a.spec.numeric.push_back(n);
    a.values.emplace_back([n](e2e::Scenario& sc) { sc.n_through = n; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::cross_flows_axis(std::vector<int> values) {
  Axis a{"nc", {}, {}};
  a.spec.name = "nc";
  for (int n : values) {
    if (n < 0) throw std::invalid_argument("SweepGrid: cross flows >= 0");
    a.spec.numeric.push_back(n);
    a.values.emplace_back([n](e2e::Scenario& sc) { sc.n_cross = n; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::through_utilization_axis(std::vector<double> values) {
  Axis a{"u0", {}, {}};
  a.spec.name = "u0";
  a.spec.numeric = values;
  for (double u : values) {
    // Conversion against the *base* capacity/source, exactly like
    // ScenarioBuilder::through_utilization.
    const int n = std::max(1, flows_for_utilization(base_, u));
    a.values.emplace_back([n](e2e::Scenario& sc) { sc.n_through = n; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::cross_utilization_axis(std::vector<double> values) {
  Axis a{"uc", {}, {}};
  a.spec.name = "uc";
  a.spec.numeric = values;
  for (double u : values) {
    const int n = flows_for_utilization(base_, u);
    a.values.emplace_back([n](e2e::Scenario& sc) { sc.n_cross = n; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::epsilon_axis(std::vector<double> values) {
  Axis a{"epsilon", {}, {}};
  a.spec.name = "epsilon";
  a.spec.numeric = values;
  for (double eps : values) {
    if (!(eps > 0.0 && eps < 1.0)) {
      throw std::invalid_argument("SweepGrid: need 0 < epsilon < 1");
    }
    a.values.emplace_back([eps](e2e::Scenario& sc) { sc.epsilon = eps; });
  }
  return add_axis(std::move(a));
}

SweepGrid& SweepGrid::capacity_axis(std::vector<double> values) {
  Axis a{"capacity", {}, {}};
  a.spec.name = "capacity";
  a.spec.numeric = values;
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

const SweepGrid::AxisSpec& SweepGrid::axis_spec(std::size_t a) const {
  return axes_.at(a).spec;
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
                   scheduler_name(sc.scheduler), std::to_string(sc.n_through),
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
    const std::string sched = escape(scheduler_name(sc.scheduler));
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
  unsigned n = options_.threads > 0
                   ? static_cast<unsigned>(options_.threads)
                   : ThreadPool::default_thread_count();
  if (n > n_tasks) n = static_cast<unsigned>(n_tasks);  // never idle workers
  return static_cast<int>(n > 0 ? n : 1);
}

SweepReport SweepRunner::run(const SweepGrid& grid) const {
  const std::vector<e2e::Scenario> scenarios = grid.scenarios();
  // Warm-start chaining decomposes the grid along its innermost numeric
  // axis (the last-added one with more than one value): consecutive
  // values of that axis differ in a single parameter, which is exactly
  // what the Solver::State hints survive.  Non-numeric axes (scheduler,
  // edf) are excluded -- chaining across them would seed e.g. an EDF
  // fixed point from a FIFO optimum.  A grid with no such axis (or a
  // custom per-point solver, or warm_start = kCold) runs the historical
  // cold path.
  if (options_.warm_start == e2e::WarmStart::kWarm && !options_.solver) {
    std::size_t stride = 1;
    for (std::size_t a = grid.axes(); a-- > 0;) {
      const std::size_t len = grid.axis_size(a);
      if (!grid.axis_spec(a).numeric.empty() && len > 1) {
        return run_chained(std::span<const e2e::Scenario>(scenarios), len,
                           stride);
      }
      stride *= len;
    }
  }
  return run(std::span<const e2e::Scenario>(scenarios));
}

SweepReport SweepRunner::run_chained(std::span<const e2e::Scenario> scenarios,
                                     std::size_t chain_len,
                                     std::size_t stride) const {
  const std::size_t n = scenarios.size();
  const std::size_t n_chains = n / chain_len;
  SweepReport report;
  report.points.resize(n);
  report.threads = resolved_threads(n_chains);
  const auto t0 = Clock::now();

  SolveOptions solve_options;
  solve_options.method = options_.method;
  solve_options.warm_start = e2e::WarmStart::kWarm;
  const Solver solver(solve_options);

  // Chains are claimed from a shared atomic cursor, but every chain is
  // solved sequentially by whichever worker claimed it, threading one
  // Solver::State from each point to its successor.  The chain results
  // therefore depend only on the grid, never on the worker count.
  std::atomic<std::size_t> cursor{0};
  std::mutex progress_mu;
  std::size_t done = 0;  // guarded by progress_mu

  const auto worker = [&] {
    for (;;) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= n_chains) return;
      // Chain c fixes every axis except the chain axis: outer axes at
      // digit c / stride, inner axes at digit c % stride.
      const std::size_t base =
          (c / stride) * (chain_len * stride) + (c % stride);
      Solver::State state;
      for (std::size_t k = 0; k < chain_len; ++k) {
        const std::size_t i = base + k * stride;
        solve_point(report.points[i], scenarios[i],
                    [&](const e2e::Scenario& sc) {
                      return solver.solve(sc, state);
                    });
        if (!options_.profile_epsilons.empty()) {
          // The profile shares the chain state: its first level warms
          // from the scalar solve above, and the state then carries the
          // last level's context to the next chain point (legal hints --
          // the warm fingerprints exclude epsilon).
          attach_profile(report.points[i], [&](const e2e::Scenario& sc) {
            return solver.solve_profile(sc, options_.profile_epsilons,
                                        state);
          });
        }
        if (options_.progress) {
          std::lock_guard<std::mutex> lock(progress_mu);
          options_.progress(++done, n);
        }
      }
    }
  };

  if (n > 0) {
    ThreadPool pool(static_cast<unsigned>(report.threads));
    for (int t = 0; t < report.threads; ++t) pool.submit(worker);
    pool.wait_idle();
  }

  report.wall_ms = ms_since(t0);
  for (const SweepPoint& p : report.points) {
    report.solve_ms += p.solve_ms;
    report.stats += p.bound.stats;
    if (p.profile) report.stats += p.profile->stats;
  }
  return report;
}

SweepReport SweepRunner::run(std::span<const e2e::Scenario> scenarios) const {
  const std::size_t n = scenarios.size();
  SweepReport report;
  report.points.resize(n);
  report.threads = resolved_threads(n);
  const auto t0 = Clock::now();

  SolveOptions solve_options;
  solve_options.method = options_.method;
  const Solver default_solver(solve_options);
  const auto solve = [&](const e2e::Scenario& sc) {
    return options_.solver ? options_.solver(sc, options_.method)
                           : default_solver.solve(sc);
  };

  // Work distribution: a shared atomic cursor; each worker claims the
  // next unsolved index and writes into its own slot, so the output
  // order is the input order no matter which worker finishes when.
  std::atomic<std::size_t> cursor{0};
  std::mutex progress_mu;
  std::size_t done = 0;  // guarded by progress_mu

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      solve_point(report.points[i], scenarios[i], solve);
      if (!options_.profile_epsilons.empty() && !options_.solver) {
        // Cold path: each profile is pinned -- bit-identical to the K
        // scalar solves of the same scenario at each level's epsilon.
        attach_profile(report.points[i], [&](const e2e::Scenario& sc) {
          return default_solver.solve_profile(sc, options_.profile_epsilons);
        });
      }
      if (options_.progress) {
        // Increment under the same lock as the callback so `done` values
        // arrive strictly increasing 1..n.
        std::lock_guard<std::mutex> lock(progress_mu);
        options_.progress(++done, n);
      }
    }
  };

  if (n > 0) {
    ThreadPool pool(static_cast<unsigned>(report.threads));
    for (int t = 0; t < report.threads; ++t) pool.submit(worker);
    pool.wait_idle();
  }

  report.wall_ms = ms_since(t0);
  for (const SweepPoint& p : report.points) {
    report.solve_ms += p.solve_ms;
    report.stats += p.bound.stats;
    if (p.profile) report.stats += p.profile->stats;
  }
  return report;
}

}  // namespace deltanc
