#include "core/selfcheck.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

#include "core/analyzer.h"
#include "core/scenario.h"
#include "e2e/solver.h"

namespace deltanc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Short human-readable identification of a scenario for issue messages.
std::string describe(const e2e::Scenario& sc) {
  std::string out = "H=" + std::to_string(sc.hops) +
                    " sched=" + sched::to_string(sc.scheduler);
  if (sc.scheduler == sched::SchedulerKind::kEdf) {
    const sched::EdfFactors& edf = sc.scheduler.edf_factors();
    out += "(" + fmt(edf.own_factor) + "," + fmt(edf.cross_factor) + ")";
  }
  out += " N0=" + std::to_string(sc.n_through) +
         " Nc=" + std::to_string(sc.n_cross) + " C=" + fmt(sc.capacity) +
         " eps=" + fmt(sc.epsilon) + " U=" + fmt(100.0 * sc.utilization()) +
         "%";
  return out;
}

/// Key of everything *except* the scheduler and deadlines: scenarios
/// sharing a key differ only in Delta, so their bounds must be ordered.
std::string group_key(const e2e::Scenario& sc) {
  char buf[200];
  std::snprintf(buf, sizeof buf, "%a|%d|%d|%d|%a|%a|%a", sc.capacity, sc.hops,
                sc.n_through, sc.n_cross, sc.epsilon, sc.source.mean_rate(),
                sc.source.peak_rate());
  return buf;
}

/// Direction of the delay bound along a sweep axis: +1 = non-decreasing,
/// -1 = non-increasing, 0 = no theory-known direction (scheduler, edf).
int axis_direction(const std::string& name) {
  if (name == "hops" || name == "n0" || name == "nc" || name == "u0" ||
      name == "uc") {
    return +1;
  }
  // Theorem 1's bound is monotone non-decreasing in the scheduler offset
  // Delta, so the continuous delta axis has a known direction too.
  if (name == "delta") return +1;
  if (name == "epsilon" || name == "capacity") return -1;
  return 0;
}

struct Checker {
  const SelfCheckOptions& opt;
  SelfCheckReport report;

  void issue(const char* check, std::string detail) {
    report.issues.push_back(SelfCheckIssue{check, std::move(detail)});
  }

  /// `lo` must not exceed `hi` by more than the relative tolerance; +inf
  /// on the `hi` side always passes, +inf on the `lo` side only against
  /// +inf.  Returns false on violation.
  [[nodiscard]] static bool ordered(double lo, double hi, double tol) {
    if (lo == kInf) return hi == kInf;
    if (hi == kInf) return true;
    return hi >= lo - tol * std::max(lo, 1.0);
  }

  void check_point(const SweepPoint& p, bool default_solver) {
    const double delay = p.bound.delay_ms;
    ++report.checks;
    if (!p.ok) {
      issue("solve", "solver failed (" + p.error + ") for " +
                         describe(p.scenario));
      return;
    }
    // Curve-backed schedulers have no Delta coordinate: their delta is
    // NaN by contract, and GPS-style isolation legitimately keeps the
    // bound finite at total utilization >= 1 as long as the provider's
    // guaranteed rate exceeds the through load (the solver's own
    // validation enforces that per-class stability condition).
    const bool curve_backed = p.scenario.scheduler.is_curve_backed();
    if (std::isnan(delay) || std::isnan(p.bound.gamma) ||
        std::isnan(p.bound.s) || std::isnan(p.bound.sigma) ||
        (!curve_backed && std::isnan(p.bound.delta))) {
      issue("finiteness", "NaN in result tuple for " + describe(p.scenario));
      return;
    }
    const double u = p.scenario.utilization();
    if (!curve_backed) {
      ++report.checks;
      if (u >= 1.0 && delay != kInf) {
        issue("finiteness", "finite bound " + fmt(delay) +
                                " ms despite utilization >= 1 for " +
                                describe(p.scenario));
      }
    }
    if (std::isfinite(delay)) {
      ++report.checks;
      if (!(delay >= 0.0) || !(p.bound.s > 0.0) ||
          !std::isfinite(p.bound.gamma) || !std::isfinite(p.bound.sigma)) {
        issue("finiteness",
              "malformed optimum (delay=" + fmt(delay) +
                  ", gamma=" + fmt(p.bound.gamma) + ", s=" + fmt(p.bound.s) +
                  ", sigma=" + fmt(p.bound.sigma) + ") for " +
                  describe(p.scenario));
      }
    } else if (default_solver) {
      // Every +inf from the built-in solver must be classified: unstable
      // load or an (explicitly recorded) empty numerical domain.
      ++report.checks;
      if (p.bound.diagnostics.ok()) {
        issue("classification", "unclassified +inf bound for " +
                                    describe(p.scenario));
      }
    }
  }

  /// Delta-ordering within groups of points differing only in
  /// scheduler/deadlines: delays sorted by resolved Delta must be
  /// non-decreasing (SP-high <= EDF <= FIFO <= BMUX and the Fig. 3 EDF
  /// variants in deadline order).
  void check_ordering(const std::vector<SweepPoint>& points) {
    struct Entry {
      double delta, delay;
      const e2e::Scenario* sc;
    };
    std::map<std::string, std::vector<Entry>> groups;
    for (const SweepPoint& p : points) {
      if (!p.ok || std::isnan(p.bound.delay_ms)) continue;
      // Curve-backed points have no Delta coordinate to sort by (their
      // delta is NaN, which would poison the strict weak ordering);
      // their orderings are self_check_curve_backed()'s job.
      if (p.scenario.scheduler.is_curve_backed()) continue;
      groups[group_key(p.scenario)].push_back(
          Entry{p.bound.delta, p.bound.delay_ms, &p.scenario});
    }
    for (auto& [key, entries] : groups) {
      (void)key;
      if (entries.size() < 2) continue;
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) {
                  if (a.delta != b.delta) return a.delta < b.delta;
                  return a.delay < b.delay;
                });
      for (std::size_t i = 1; i < entries.size(); ++i) {
        const Entry& lo = entries[i - 1];
        const Entry& hi = entries[i];
        ++report.checks;
        if (!ordered(lo.delay, hi.delay, opt.ordering_tol)) {
          issue("ordering",
                describe(*hi.sc) + " (Delta=" + fmt(hi.delta) + ") bound " +
                    fmt(hi.delay) + " ms undercuts " + describe(*lo.sc) +
                    " (Delta=" + fmt(lo.delta) + ") bound " + fmt(lo.delay) +
                    " ms");
        }
      }
    }
  }

  /// Monotonicity along every grid axis with a known direction, walking
  /// each grid line via the row-major strides of SweepGrid.
  void check_monotonicity(const SweepGrid& grid,
                          const std::vector<SweepPoint>& points) {
    const std::size_t n = points.size();
    for (std::size_t a = 0; a < grid.axes(); ++a) {
      const int dir = axis_direction(grid.axis_name(a));
      const std::size_t m = grid.axis_size(a);
      if (dir == 0 || m < 2) continue;
      std::size_t stride = 1;
      for (std::size_t b = a + 1; b < grid.axes(); ++b) {
        stride *= grid.axis_size(b);
      }
      for (std::size_t i = 0; i < n; ++i) {
        if ((i / stride) % m != 0) continue;  // not the start of a line
        for (std::size_t j = 1; j < m; ++j) {
          const SweepPoint& prev = points[i + (j - 1) * stride];
          const SweepPoint& cur = points[i + j * stride];
          if (!prev.ok || !cur.ok) continue;
          const double lo =
              dir > 0 ? prev.bound.delay_ms : cur.bound.delay_ms;
          const double hi =
              dir > 0 ? cur.bound.delay_ms : prev.bound.delay_ms;
          ++report.checks;
          if (!ordered(lo, hi, opt.monotonicity_tol)) {
            issue("monotonicity",
                  "delay not " +
                      std::string(dir > 0 ? "non-decreasing"
                                          : "non-increasing") +
                      " along axis '" + grid.axis_name(a) + "': " +
                      fmt(prev.bound.delay_ms) + " ms at " +
                      describe(prev.scenario) + " vs " +
                      fmt(cur.bound.delay_ms) + " ms at " +
                      describe(cur.scenario));
          }
        }
      }
    }
  }

  /// kExactOpt <= kPaperK (the K-procedure restricts the search) and
  /// kPaperK within method_tol of kExactOpt; finiteness must agree.
  void check_methods(const std::vector<SweepPoint>& exact,
                     const std::vector<SweepPoint>& paperk) {
    for (std::size_t i = 0; i < exact.size() && i < paperk.size(); ++i) {
      if (!exact[i].ok || !paperk[i].ok) continue;
      const double de = exact[i].bound.delay_ms;
      const double dk = paperk[i].bound.delay_ms;
      if (std::isnan(de) || std::isnan(dk)) continue;  // flagged already
      ++report.checks;
      if ((de == kInf) != (dk == kInf)) {
        issue("method-agreement",
              "finiteness mismatch (exact=" + fmt(de) + " ms, paper-K=" +
                  fmt(dk) + " ms) for " + describe(exact[i].scenario));
        continue;
      }
      if (de == kInf) continue;
      if (!ordered(de, dk, opt.ordering_tol)) {
        issue("method-agreement",
              "paper-K bound " + fmt(dk) + " ms undercuts exact bound " +
                  fmt(de) + " ms for " + describe(exact[i].scenario));
      } else if (exact[i].bound.delta >= 0.0 &&
                 !(exact[i].scenario.scheduler ==
                       sched::SchedulerKind::kDelta &&
                   std::isfinite(exact[i].scenario.scheduler.delta()) &&
                   exact[i].scenario.scheduler.delta() != 0.0) &&
                 dk > de * (1.0 + opt.method_tol)) {
        // The two-sided agreement only holds where the K-procedure is
        // near-optimal.  For Delta < 0 the paper's K = 0 rule (Eq. 42)
        // overshoots by design (see bench/ablation_k_procedure.cpp), so
        // only the one-sided exact <= paper-K invariant applies there.
        // Intermediate explicit fixed-Delta points are exempt too: K's
        // integer quantization error scales with Delta / d_e2e, which
        // the named schedulers (Delta = 0 / +-inf) and the EDF fixed
        // point keep small but an arbitrary finite offset does not.
        issue("method-agreement",
              "paper-K bound " + fmt(dk) + " ms exceeds exact bound " +
                  fmt(de) + " ms by more than " +
                  fmt(100.0 * opt.method_tol) + "% for " +
                  describe(exact[i].scenario));
      }
    }
  }
};

SweepReport solve_all(std::span<const e2e::Scenario> scenarios,
                      const SelfCheckOptions& options, e2e::Method method) {
  SweepOptions so;
  so.threads = options.threads;
  so.method = method;
  so.solver = options.solver;
  return SweepRunner(so).run(scenarios);
}

/// Delta-endpoint pinning (the satellite invariant of the continuous
/// axis): for every base scenario, the bound at an explicit Delta = 0
/// must equal the FIFO bound and the bound at Delta = +inf the BMUX
/// bound, *bit-identically* -- the solver routes all four through the
/// same fixed-Delta path, so any difference is a routing bug.
SelfCheckReport check_delta_endpoints(std::span<const e2e::Scenario> bases,
                                      const SelfCheckOptions& options) {
  Checker checker{options, {}};
  std::vector<e2e::Scenario> scenarios;
  scenarios.reserve(bases.size() * 4);
  for (const e2e::Scenario& base : bases) {
    e2e::Scenario sc = base;
    sc.scheduler = sched::SchedulerSpec::fixed_delta(0.0);
    scenarios.push_back(sc);
    sc.scheduler = sched::SchedulerKind::kFifo;
    scenarios.push_back(sc);
    sc.scheduler = sched::SchedulerSpec::fixed_delta(kInf);
    scenarios.push_back(sc);
    sc.scheduler = sched::SchedulerKind::kBmux;
    scenarios.push_back(sc);
  }
  const SweepReport r = solve_all(scenarios, options, options.method);
  checker.report.points = r.points.size();
  for (std::size_t i = 0; i + 3 < r.points.size(); i += 4) {
    for (std::size_t pair = 0; pair < 2; ++pair) {
      const SweepPoint& at_delta = r.points[i + 2 * pair];
      const SweepPoint& named = r.points[i + 2 * pair + 1];
      ++checker.report.checks;
      if (!at_delta.ok || !named.ok) {
        checker.issue("delta-endpoint",
                      "endpoint solve failed for " +
                          describe(at_delta.scenario));
        continue;
      }
      if (at_delta.bound.delay_ms != named.bound.delay_ms) {
        checker.issue(
            "delta-endpoint",
            describe(at_delta.scenario) + " bound " +
                fmt(at_delta.bound.delay_ms) + " ms != " +
                describe(named.scenario) + " bound " +
                fmt(named.bound.delay_ms) + " ms (must pin bit-identically)");
      }
    }
  }
  return std::move(checker.report);
}

/// Shared backend of all self_check overloads: solve once, run the point
/// and ordering checks, then the grid-only and method checks.
SelfCheckReport run_checks(std::span<const e2e::Scenario> scenarios,
                           const SelfCheckOptions& options,
                           const SweepGrid* grid) {
  Checker checker{options, {}};
  const SweepReport primary = solve_all(scenarios, options, options.method);
  checker.report.points = primary.points.size();
  for (const SweepPoint& p : primary.points) {
    checker.check_point(p, !options.solver);
  }
  checker.check_ordering(primary.points);
  if (grid != nullptr) checker.check_monotonicity(*grid, primary.points);
  if (options.check_methods && !options.solver) {
    const e2e::Method other = options.method == e2e::Method::kExactOpt
                                  ? e2e::Method::kPaperK
                                  : e2e::Method::kExactOpt;
    const SweepReport secondary = solve_all(scenarios, options, other);
    checker.report.points += secondary.points.size();
    const bool primary_is_exact = options.method == e2e::Method::kExactOpt;
    checker.check_methods(
        primary_is_exact ? primary.points : secondary.points,
        primary_is_exact ? secondary.points : primary.points);
  }
  return std::move(checker.report);
}

}  // namespace

std::string SelfCheckReport::summary() const {
  return std::to_string(points) + " points, " + std::to_string(checks) +
         " checks, " + std::to_string(issues.size()) + " issue(s)";
}

SelfCheckReport& SelfCheckReport::operator+=(const SelfCheckReport& other) {
  points += other.points;
  checks += other.checks;
  issues.insert(issues.end(), other.issues.begin(), other.issues.end());
  return *this;
}

SelfCheckReport self_check(std::span<const e2e::Scenario> scenarios,
                           const SelfCheckOptions& options) {
  return run_checks(scenarios, options, nullptr);
}

SelfCheckReport self_check_warm_start(const SweepGrid& grid,
                                      const SelfCheckOptions& options) {
  Checker checker{options, {}};
  SweepOptions so;
  so.threads = options.threads;
  so.method = options.method;
  so.solver = options.solver;
  so.warm_start = e2e::WarmStart::kCold;
  const SweepReport cold = SweepRunner(so).run(grid);
  so.warm_start = e2e::WarmStart::kWarm;
  const SweepReport warm = SweepRunner(so).run(grid);
  checker.report.points = cold.points.size() + warm.points.size();
  for (std::size_t i = 0;
       i < cold.points.size() && i < warm.points.size(); ++i) {
    const SweepPoint& c = cold.points[i];
    const SweepPoint& w = warm.points[i];
    ++checker.report.checks;
    if (c.ok != w.ok) {
      checker.issue("warm-start",
                    std::string("cold/warm solve outcome mismatch (cold ") +
                        (c.ok ? "ok" : "failed") + ", warm " +
                        (w.ok ? "ok" : "failed") + ") for " +
                        describe(c.scenario));
      continue;
    }
    if (!c.ok) continue;  // both failed identically; flagged elsewhere
    const double dc = c.bound.delay_ms;
    const double dw = w.bound.delay_ms;
    if ((dc == kInf) != (dw == kInf)) {
      checker.issue("warm-start",
                    "finiteness mismatch (cold=" + fmt(dc) + " ms, warm=" +
                        fmt(dw) + " ms) for " + describe(c.scenario));
      continue;
    }
    if (dc == kInf) continue;
    const double dev = std::abs(dw - dc) / std::max(dc, 1.0);
    if (!(dev <= kWarmStartRelTol)) {
      checker.issue("warm-start",
                    "warm bound " + fmt(dw) + " ms deviates from cold " +
                        fmt(dc) + " ms by " + fmt(dev) +
                        " relative (tolerance " + fmt(kWarmStartRelTol) +
                        ") for " + describe(c.scenario));
    }
  }
  return std::move(checker.report);
}

SelfCheckReport self_check_profile(std::span<const e2e::Scenario> scenarios,
                                   std::span<const double> epsilons,
                                   const SelfCheckOptions& options) {
  Checker checker{options, {}};
  // Bitwise-identical up to NaN (curve-backed results carry a NaN delta
  // by contract, and NaN != NaN would flag a correct pin).
  const auto identical = [](double a, double b) {
    return a == b || (std::isnan(a) && std::isnan(b));
  };
  SolveOptions cold_options;
  cold_options.method = options.method;
  const Solver cold_solver(cold_options);
  SolveOptions warm_options = cold_options;
  warm_options.warm_start = e2e::WarmStart::kWarm;
  const Solver warm_solver(warm_options);

  for (const e2e::Scenario& sc : scenarios) {
    const e2e::DelayProfile cold = cold_solver.solve_profile(sc, epsilons);
    const e2e::DelayProfile warm = warm_solver.solve_profile(sc, epsilons);
    checker.report.points += cold.levels.size() + warm.levels.size();
    for (std::size_t i = 0; i < cold.levels.size(); ++i) {
      const e2e::BoundResult& c = cold.levels[i];
      const e2e::BoundResult& w = warm.levels[i];
      // Pinning: the cold profile level must be bit-identical to an
      // independent scalar solve of the same scenario at this epsilon.
      e2e::Scenario at_eps = sc;
      at_eps.epsilon = cold.epsilons[i];
      const e2e::BoundResult scalar = cold_solver.solve(at_eps);
      ++checker.report.points;
      ++checker.report.checks;
      if (!identical(c.delay_ms, scalar.delay_ms) ||
          !identical(c.gamma, scalar.gamma) || !identical(c.s, scalar.s) ||
          !identical(c.sigma, scalar.sigma) ||
          !identical(c.delta, scalar.delta)) {
        checker.issue("profile-pinning",
                      "cold profile level at eps=" + fmt(cold.epsilons[i]) +
                          " (" + fmt(c.delay_ms) +
                          " ms) differs from the scalar solve (" +
                          fmt(scalar.delay_ms) + " ms) for " + describe(sc));
      }
      // Classification: a non-finite level must say why.
      ++checker.report.checks;
      if (!std::isfinite(c.delay_ms) && c.diagnostics.ok()) {
        checker.issue("profile-classification",
                      "unclassified non-finite profile level at eps=" +
                          fmt(cold.epsilons[i]) + " for " + describe(sc));
      }
      // Warm tolerance: finiteness must agree; finite levels within
      // kWarmStartRelTol.
      ++checker.report.checks;
      if (std::isfinite(c.delay_ms) != std::isfinite(w.delay_ms)) {
        checker.issue("profile-warm",
                      "finiteness mismatch (cold=" + fmt(c.delay_ms) +
                          " ms, warm=" + fmt(w.delay_ms) + " ms) at eps=" +
                          fmt(cold.epsilons[i]) + " for " + describe(sc));
      } else if (std::isfinite(c.delay_ms)) {
        const double dev =
            std::abs(w.delay_ms - c.delay_ms) / std::max(c.delay_ms, 1.0);
        if (!(dev <= kWarmStartRelTol)) {
          checker.issue("profile-warm",
                        "warm profile level " + fmt(w.delay_ms) +
                            " ms deviates from cold " + fmt(c.delay_ms) +
                            " ms by " + fmt(dev) + " relative (tolerance " +
                            fmt(kWarmStartRelTol) + ") at eps=" +
                            fmt(cold.epsilons[i]) + " for " + describe(sc));
        }
      }
    }
    // Monotonicity: d(epsilon) non-increasing in epsilon, for both the
    // cold and the warm profile, walking the levels in ascending-epsilon
    // order whatever order the caller's grid uses.
    std::vector<std::size_t> order(cold.epsilons.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return cold.epsilons[a] < cold.epsilons[b];
    });
    const auto check_monotone = [&](const e2e::DelayProfile& profile,
                                    const char* label) {
      for (std::size_t k = 1; k < order.size(); ++k) {
        const double tighter = profile.levels[order[k - 1]].delay_ms;
        const double looser = profile.levels[order[k]].delay_ms;
        if (std::isnan(tighter) || std::isnan(looser)) continue;  // flagged
        ++checker.report.checks;
        // Larger epsilon must not yield the larger bound.
        if (!Checker::ordered(looser, tighter, options.monotonicity_tol)) {
          checker.issue("profile-monotonicity",
                        std::string(label) + " profile not non-increasing "
                            "in epsilon: d(" +
                            fmt(profile.epsilons[order[k]]) + ") = " +
                            fmt(looser) + " ms exceeds d(" +
                            fmt(profile.epsilons[order[k - 1]]) + ") = " +
                            fmt(tighter) + " ms for " + describe(sc));
        }
      }
    };
    check_monotone(cold, "cold");
    check_monotone(warm, "warm");
  }
  return std::move(checker.report);
}

SelfCheckReport self_check(const SweepGrid& grid,
                           const SelfCheckOptions& options) {
  const std::vector<e2e::Scenario> scenarios = grid.scenarios();
  return run_checks(std::span<const e2e::Scenario>(scenarios), options,
                    &grid);
}

SelfCheckReport self_check(const e2e::Scenario& scenario,
                           const SelfCheckOptions& options) {
  std::vector<e2e::Scenario> variants;
  for (sched::SchedulerKind s :
       {sched::SchedulerKind::kSpHigh, sched::SchedulerKind::kEdf,
        sched::SchedulerKind::kFifo, sched::SchedulerKind::kBmux}) {
    e2e::Scenario sc = scenario;
    sc.scheduler = s;  // kind re-assignment keeps the EDF factors
    variants.push_back(sc);
  }
  return self_check(std::span<const e2e::Scenario>(variants), options);
}

SelfCheckReport self_check_figures(const SelfCheckOptions& options) {
  SelfCheckReport report;
  const std::vector<sched::SchedulerKind> all_scheds = {
      sched::SchedulerKind::kSpHigh, sched::SchedulerKind::kEdf,
      sched::SchedulerKind::kFifo, sched::SchedulerKind::kBmux};

  // Fig. 2 (Example 1): utilization sweep at U0 = 15%, H = 2, 5, 10,
  // extended with SP-high so the full scheduler ordering is exercised.
  std::vector<double> cross_utils;
  for (int u_pct = 20; u_pct <= 95; u_pct += 5) {
    cross_utils.push_back(u_pct / 100.0 - 0.15);
  }
  for (int hops : {2, 5, 10}) {
    SweepGrid grid(ScenarioBuilder()
                       .hops(hops)
                       .through_flows(100)
                       .violation_probability(1e-9)
                       .edf_deadlines(1.0, 10.0)
                       .build());
    grid.cross_utilization_axis(cross_utils).scheduler_axis(all_scheds);
    report += self_check(grid, options);
    // Warm-start tolerance contract on the same grid: cold vs. chained
    // warm bounds must agree within kWarmStartRelTol (see selfcheck.h).
    report += self_check_warm_start(grid, options);
  }

  // Delay-profile battery on representative Fig. 2 operating points:
  // pinning (cold profile == scalar solves, bit-identical), warm
  // tolerance, d(epsilon) monotonicity, classification -- across the
  // Delta-backed schedulers and one curve-backed kind.
  {
    const std::vector<double> profile_eps = {1e-3, 1e-6, 1e-9, 1e-12};
    std::vector<e2e::Scenario> profile_bases;
    for (int hops : {2, 5, 10}) {
      const e2e::Scenario base = ScenarioBuilder()
                                     .hops(hops)
                                     .through_flows(100)
                                     .cross_utilization(0.50)
                                     .violation_probability(1e-9)
                                     .edf_deadlines(1.0, 10.0)
                                     .build();
      for (sched::SchedulerKind kind :
           {sched::SchedulerKind::kFifo, sched::SchedulerKind::kEdf,
            sched::SchedulerKind::kBmux}) {
        e2e::Scenario sc = base;
        sc.scheduler = kind;  // kind re-assignment keeps the EDF factors
        profile_bases.push_back(sc);
      }
      e2e::Scenario gps = base;
      gps.scheduler = sched::SchedulerSpec::gps(1.0, 1.0);
      profile_bases.push_back(gps);
    }
    report += self_check_profile(
        std::span<const e2e::Scenario>(profile_bases),
        std::span<const double>(profile_eps), options);
  }

  // Delta interpolation (the journal version's continuous sweep between
  // FIFO and BMUX) on the Fig. 2 grid: for fixed traffic the bound must
  // be non-decreasing in Delta (the "delta" axis has direction +1, so
  // the grid monotonicity check covers it; the within-group ordering
  // check re-verifies via the resolved Delta values), and the endpoints
  // Delta = 0 / Delta = +inf must pin bit-identically to the fifo/bmux
  // bounds (check_delta_endpoints).
  const std::vector<double> deltas = {0.0, 0.5, 1.0, 2.0,
                                      5.0, 10.0, 50.0, kInf};
  for (int hops : {2, 5, 10}) {
    const e2e::Scenario base = ScenarioBuilder()
                                   .hops(hops)
                                   .through_flows(100)
                                   .violation_probability(1e-9)
                                   .build();
    SweepGrid grid(base);
    grid.cross_utilization_axis(cross_utils).delta_axis(deltas);
    report += self_check(grid, options);
    std::vector<e2e::Scenario> bases;
    for (double u : cross_utils) {
      e2e::Scenario sc = base;
      sc.n_cross = flows_for_utilization(base, u);
      bases.push_back(sc);
    }
    report += check_delta_endpoints(
        std::span<const e2e::Scenario>(bases), options);
  }

  // Fig. 3 (Example 2): traffic-mix lists at constant U = 50% with both
  // EDF deadline settings; the mix co-varies U0 and Uc, so this is an
  // explicit list (ordering groups form per mix point).
  for (int hops : {2, 5, 10}) {
    std::vector<e2e::Scenario> scenarios;
    for (int mix_pct = 10; mix_pct <= 90; mix_pct += 10) {
      const double uc = 0.50 * mix_pct / 100.0;
      const double u0 = 0.50 - uc;
      struct Column {
        sched::SchedulerKind sched;
        double own, cross;
      };
      for (const Column& col :
           {Column{sched::SchedulerKind::kEdf, 1.0, 2.0},
            Column{sched::SchedulerKind::kFifo, 1.0, 1.0},
            Column{sched::SchedulerKind::kEdf, 1.0, 0.5},
            Column{sched::SchedulerKind::kBmux, 1.0, 1.0},
            Column{sched::SchedulerKind::kSpHigh, 1.0, 1.0}}) {
        scenarios.push_back(ScenarioBuilder()
                                .hops(hops)
                                .through_utilization(u0)
                                .cross_utilization(uc)
                                .violation_probability(1e-9)
                                .scheduler(col.sched)
                                .edf_deadlines(col.own, col.cross)
                                .build());
      }
    }
    report += self_check(std::span<const e2e::Scenario>(scenarios), options);
  }

  // Fig. 4 (Example 3): path-length sweep at U = 10, 50, 90% with
  // N0 = Nc, again with the full scheduler set.
  for (double u : {0.10, 0.50, 0.90}) {
    SweepGrid grid(ScenarioBuilder()
                       .through_utilization(u / 2.0)
                       .cross_utilization(u / 2.0)
                       .violation_probability(1e-9)
                       .edf_deadlines(1.0, 10.0)
                       .build());
    grid.hops_axis({1, 2, 4, 6, 8, 10, 13, 16, 20, 25})
        .scheduler_axis(all_scheds);
    report += self_check(grid, options);
  }

  return report;
}

SelfCheckReport self_check_curve_backed(const SelfCheckOptions& options) {
  Checker checker{options, {}};
  using sched::SchedulerSpec;

  // One variant list per operating point; the comparisons below index
  // into it, so order matters.
  const std::vector<SchedulerSpec> variants = {
      SchedulerSpec(sched::SchedulerKind::kSpHigh),  // 0: full priority
      SchedulerSpec::gps(1.0, 1.0),                  // 1: half the link
      SchedulerSpec::gps(2.0, 1.0),                  // 2: 2/3 share
      SchedulerSpec::gps(4.0, 1.0),                  // 3: 4/5 share
      SchedulerSpec::drr(1.0, 1.0),                  // 4: gps(1,1) + round
      SchedulerSpec::drr(2.0, 1.0),                  // 5
      SchedulerSpec::drr(4.0, 1.0),                  // 6
      SchedulerSpec::sced(),                         // 7: load-proportional
  };
  // lo's bound must not exceed hi's (within ordering_tol).
  struct Ordering {
    std::size_t lo, hi;
    const char* why;
  };
  constexpr Ordering orderings[] = {
      // GPS guarantees only half the link but its deterministic curve
      // pays the through burst once end-to-end, while SP-high's
      // Theorem-1 bound accumulates burstiness per hop -- so on these
      // multi-hop grids GPS(1,1) bounds below even full priority.
      {1, 0, "GPS(1,1) (pay-bursts-once) must bound the per-hop SP-high "
             "analysis from below on multi-hop paths"},
      {2, 1, "GPS bound must be non-increasing in the through share"},
      {3, 2, "GPS bound must be non-increasing in the through share"},
      {1, 4, "GPS(1,1) must bound DRR(1,1) from below (same rate, DRR "
             "adds a round-robin latency)"},
      {5, 4, "DRR bound must be non-increasing in the through quantum"},
      {6, 5, "DRR bound must be non-increasing in the through quantum"},
      // Symmetric loads: load-proportional sharing == equal weights, so
      // sced and gps(1,1) must agree (both directions, within tol).
      {1, 7, "sced must not undercut gps(1,1) on symmetric loads"},
      {7, 1, "gps(1,1) must not undercut sced on symmetric loads"},
  };

  std::vector<e2e::Scenario> scenarios;
  for (int hops : {2, 5, 10}) {
    for (double u : {0.30, 0.50, 0.90}) {
      // N0 = Nc (symmetric loads) so the sced row is comparable.
      const e2e::Scenario base = ScenarioBuilder()
                                     .hops(hops)
                                     .through_utilization(u / 2.0)
                                     .cross_utilization(u / 2.0)
                                     .violation_probability(1e-9)
                                     .build();
      for (const SchedulerSpec& spec : variants) {
        e2e::Scenario sc = base;
        sc.scheduler = spec;
        scenarios.push_back(sc);
      }
    }
  }
  const SweepReport r = solve_all(scenarios, options, options.method);
  checker.report.points = r.points.size();
  for (const SweepPoint& p : r.points) {
    checker.check_point(p, !options.solver);
  }
  for (std::size_t base = 0; base + variants.size() <= r.points.size();
       base += variants.size()) {
    for (const Ordering& o : orderings) {
      const SweepPoint& lo = r.points[base + o.lo];
      const SweepPoint& hi = r.points[base + o.hi];
      if (!lo.ok || !hi.ok) continue;  // flagged by check_point already
      ++checker.report.checks;
      if (!Checker::ordered(lo.bound.delay_ms, hi.bound.delay_ms,
                            options.ordering_tol)) {
        checker.issue("curve-ordering",
                      std::string(o.why) + ": " + describe(hi.scenario) +
                          " bound " + fmt(hi.bound.delay_ms) +
                          " ms undercuts " + describe(lo.scenario) +
                          " bound " + fmt(lo.bound.delay_ms) + " ms");
      }
    }
  }

  // GPS isolation: overload the link (total utilization >= 1) while the
  // through class's guaranteed share 0.75 C still exceeds its load
  // 0.45 C.  GPS must keep a finite bound; BMUX (which sees the
  // aggregate) must diverge.
  std::vector<e2e::Scenario> overload;
  for (int hops : {2, 5, 10}) {
    e2e::Scenario sc = ScenarioBuilder()
                           .hops(hops)
                           .through_utilization(0.45)
                           .cross_utilization(0.60)
                           .violation_probability(1e-9)
                           .build();
    sc.scheduler = SchedulerSpec::gps(3.0, 1.0);
    overload.push_back(sc);
    sc.scheduler = sched::SchedulerKind::kBmux;
    overload.push_back(sc);
  }
  const SweepReport iso = solve_all(overload, options, options.method);
  checker.report.points += iso.points.size();
  for (std::size_t i = 0; i + 1 < iso.points.size(); i += 2) {
    const SweepPoint& gps = iso.points[i];
    const SweepPoint& bmux = iso.points[i + 1];
    checker.check_point(gps, !options.solver);
    checker.check_point(bmux, !options.solver);
    if (gps.ok) {
      ++checker.report.checks;
      if (!std::isfinite(gps.bound.delay_ms)) {
        checker.issue("isolation",
                      "GPS isolation lost: infinite bound despite "
                      "guaranteed rate > through load for " +
                          describe(gps.scenario));
      }
    }
    if (bmux.ok) {
      ++checker.report.checks;
      if (bmux.bound.delay_ms != kInf) {
        checker.issue("isolation",
                      "BMUX bound " + fmt(bmux.bound.delay_ms) +
                          " ms finite despite total utilization >= 1 for " +
                          describe(bmux.scenario));
      }
    }
  }

  // Simulation cross-check: the slot-level simulator runs the *actual*
  // disciplines (deficit counters for DRR, deadline curves for SCED),
  // so its empirical delay quantiles must stay below the analytic
  // bounds.  Skipped when a test injects a custom solver -- injected
  // bounds have no relation to the simulated network.
  if (!options.solver) {
    constexpr std::int64_t kSimSlots = 40000;
    for (const SchedulerSpec& spec :
         {SchedulerSpec::gps(1.0, 1.0), SchedulerSpec::drr(1.0, 1.0),
          SchedulerSpec::sced()}) {
      e2e::Scenario sc = ScenarioBuilder()
                             .hops(2)
                             .through_utilization(0.25)
                             .cross_utilization(0.25)
                             .violation_probability(1e-9)
                             .build();
      sc.scheduler = spec;
      const ValidationReport v = PathAnalyzer(sc).validate(kSimSlots, 42);
      ++checker.report.points;
      ++checker.report.checks;
      if (!v.bound_holds) {
        checker.issue("simulation",
                      "simulated " + fmt(100.0 * (1.0 - v.epsilon_sim)) +
                          "% delay quantile " + fmt(v.empirical_quantile) +
                          " ms exceeds the analytic bound " +
                          fmt(v.bound.delay_ms) + " ms for " + describe(sc));
      }
    }
  }
  return std::move(checker.report);
}

}  // namespace deltanc
