#include "core/selfcheck.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <numeric>
#include <tuple>
#include <utility>

#include "core/analyzer.h"
#include "core/scenario.h"
#include "e2e/solver.h"

namespace deltanc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// kPaperK may exceed kExactOpt by at most this fraction -- enforced
/// only where the resolved Delta is >= 0: for negative Delta the
/// paper's K = 0 rule overshoots by design (its own caveat; see
/// bench/ablation_k_procedure.cpp), so only the one-sided
/// kExactOpt <= kPaperK invariant is checked there.  A reproduction
/// claim about the K-procedure, not an optimizer termination slack.
constexpr double kMethodTol = 0.20;

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

/// The three relations every pairwise verdict goes through.
enum class Rel {
  /// a's delay <= b's within tol relative (of max(a, 1 ms)); +inf on b's
  /// side always passes, +inf on a's side only against +inf.
  kNotAbove,
  /// Same ok state, and where both solved: equal delays, or both finite
  /// and within tol relative of a (the reference) -- so the finiteness
  /// of the two must match.
  kAgrees,
  /// Both solved and the (delay, gamma, s, sigma, delta) tuples are
  /// bit-identical (NaN matches NaN: curve-backed deltas are NaN).
  kSameBits,
};

/// One side of a comparison: a solved bound, whether its solve
/// succeeded, and what an issue calls it.
struct Side {
  const e2e::BoundResult& bound;
  bool ok;
  std::string what;
};

/// `p`'s side, named by `label` and its scenario.
Side side(const SweepPoint& p, const std::string& label = {}) {
  return Side{p.bound, p.ok, label + describe(p.scenario)};
}

bool same_bits(double x, double y) {
  return x == y || (std::isnan(x) && std::isnan(y));
}

bool holds(Rel rel, const Side& a, const Side& b, double tol) {
  const double x = a.bound.delay_ms;
  const double y = b.bound.delay_ms;
  switch (rel) {
    case Rel::kNotAbove:
      if (x == kInf) return y == kInf;
      return y == kInf || y >= x - tol * std::max(x, 1.0);
    case Rel::kAgrees:
      if (a.ok != b.ok) return false;
      if (!a.ok || x == y) return true;
      return std::isfinite(x) && std::isfinite(y) &&
             std::abs(y - x) <= tol * std::max(x, 1.0);
    case Rel::kSameBits:
      return a.ok && b.ok && same_bits(x, y) &&
             same_bits(a.bound.gamma, b.bound.gamma) &&
             same_bits(a.bound.s, b.bound.s) &&
             same_bits(a.bound.sigma, b.bound.sigma) &&
             same_bits(a.bound.delta, b.bound.delta);
  }
  return false;
}

std::string text(const Side& s) {
  return s.ok ? s.what + " bound " + fmt(s.bound.delay_ms) + " ms"
              : s.what + " (solve failed)";
}

struct Checker {
  SelfCheckReport report;

  void issue(const char* check, std::string detail) {
    report.issues.push_back(SelfCheckIssue{check, std::move(detail)});
  }

  /// Counts one check; records `check` with detail() unless `ok`.
  template <typename Detail>
  void expect(const char* check, bool ok, Detail&& detail) {
    ++report.checks;
    if (!ok) issue(check, detail());
  }

  /// The issue writer of every pairwise verdict: records `check` unless
  /// `a rel b` holds, and returns whether it held.  Counts no check, so
  /// that one check can hold two relations (see check_methods).
  bool verdict(const char* check, const Side& a, Rel rel, const Side& b,
               double tol = kWarmStartRelTol, const std::string& law = {}) {
    if (holds(rel, a, b, tol)) return true;
    static constexpr const char* kVerb[] = {" exceeds ", " disagrees with ",
                                            " differs in its bits from "};
    std::string detail = text(a) + kVerb[static_cast<int>(rel)] + text(b);
    if (rel != Rel::kSameBits) detail += " (tolerance " + fmt(tol) + ")";
    if (!law.empty()) detail += ": " + law;
    issue(check, std::move(detail));
    return false;
  }

  /// One counted check of one relation; returns whether it held.
  bool compare(const char* check, const Side& a, Rel rel, const Side& b,
               double tol = kWarmStartRelTol, const std::string& law = {}) {
    ++report.checks;
    return verdict(check, a, rel, b, tol, law);
  }

  void check_point(const SweepPoint& p, bool default_solver) {
    const e2e::BoundResult& b = p.bound;
    const auto where = [&] { return " for " + describe(p.scenario); };
    // Curve-backed schedulers have no Delta coordinate (their delta is
    // NaN by contract), and GPS-style isolation keeps their bound finite
    // at total utilization >= 1 while the guaranteed rate exceeds the
    // through load (the solver's own validation enforces that).
    const bool curve_backed = p.scenario.scheduler.is_curve_backed();
    const bool nan = std::isnan(b.delay_ms) || std::isnan(b.gamma) ||
                     std::isnan(b.s) || std::isnan(b.sigma) ||
                     (!curve_backed && std::isnan(b.delta));
    expect(p.ok ? "finiteness" : "solve", p.ok && !nan, [&] {
      return p.ok ? "NaN in result tuple" + where()
                  : "solver failed (" + p.error + ")" + where();
    });
    if (!p.ok || nan) return;
    if (!curve_backed) {
      expect("finiteness",
             !(p.scenario.utilization() >= 1.0 && b.delay_ms != kInf), [&] {
               return "finite bound " + fmt(b.delay_ms) +
                      " ms despite utilization >= 1" + where();
             });
    }
    if (std::isfinite(b.delay_ms)) {
      expect("finiteness",
             b.delay_ms >= 0.0 && b.s > 0.0 && std::isfinite(b.gamma) &&
                 std::isfinite(b.sigma),
             [&] {
               return "malformed optimum (delay=" + fmt(b.delay_ms) +
                      ", gamma=" + fmt(b.gamma) + ", s=" + fmt(b.s) +
                      ", sigma=" + fmt(b.sigma) + ")" + where();
             });
    } else if (default_solver) {
      // Every +inf from the built-in solver must be classified: unstable
      // load or an (explicitly recorded) empty numerical domain.
      expect("classification", !b.diagnostics.ok(),
             [&] { return "unclassified +inf bound" + where(); });
    }
  }

  /// Delta-ordering within groups of points differing only in
  /// scheduler/deadlines: delays sorted by resolved Delta must be
  /// non-decreasing (SP-high <= EDF <= FIFO <= BMUX and the Fig. 3 EDF
  /// variants in deadline order).
  void check_ordering(const std::vector<SweepPoint>& points) {
    std::map<std::string, std::vector<const SweepPoint*>> groups;
    for (const SweepPoint& p : points) {
      if (!p.ok || std::isnan(p.bound.delay_ms)) continue;
      // Curve-backed points have no Delta coordinate to sort by (their
      // delta is NaN, which would poison the strict weak ordering);
      // their orderings are self_check_curve_backed()'s job.
      if (p.scenario.scheduler.is_curve_backed()) continue;
      groups[group_key(p.scenario)].push_back(&p);
    }
    const auto at_delta = [](const SweepPoint* p) {
      return side(*p, "Delta=" + fmt(p->bound.delta) + " ");
    };
    for (auto& [key, group] : groups) {
      (void)key;
      std::sort(group.begin(), group.end(),
                [](const SweepPoint* a, const SweepPoint* b) {
                  if (a->bound.delta != b->bound.delta) {
                    return a->bound.delta < b->bound.delta;
                  }
                  return a->bound.delay_ms < b->bound.delay_ms;
                });
      for (std::size_t i = 1; i < group.size(); ++i) {
        compare("ordering", at_delta(group[i - 1]), Rel::kNotAbove,
                at_delta(group[i]));
      }
    }
  }

  /// Monotonicity along every grid axis with a known direction, walking
  /// each grid line via the row-major strides of SweepGrid.
  void check_monotonicity(const SweepGrid& grid,
                          const std::vector<SweepPoint>& points) {
    for (std::size_t a = 0; a < grid.axes(); ++a) {
      const int dir = axis_direction(grid.axis_name(a));
      const std::size_t m = grid.axis_size(a);
      if (dir == 0 || m < 2) continue;
      std::size_t stride = 1;
      for (std::size_t b = a + 1; b < grid.axes(); ++b) {
        stride *= grid.axis_size(b);
      }
      const std::string law =
          std::string(dir > 0 ? "non-decreasing" : "non-increasing") +
          " along axis '" + grid.axis_name(a) + "'";
      for (std::size_t i = 0; i < points.size(); ++i) {
        if ((i / stride) % m != 0) continue;  // not the start of a line
        for (std::size_t j = 1; j < m; ++j) {
          const SweepPoint& prev = points[i + (j - 1) * stride];
          const SweepPoint& cur = points[i + j * stride];
          if (!prev.ok || !cur.ok) continue;
          compare("monotonicity", side(dir > 0 ? prev : cur), Rel::kNotAbove,
                  side(dir > 0 ? cur : prev), kWarmStartRelTol, law);
        }
      }
    }
  }

  /// kExactOpt <= kPaperK (the K-procedure restricts the search) and
  /// kPaperK within kMethodTol of kExactOpt; finiteness must agree.
  /// One check per pair, holding both relations.
  void check_methods(const std::vector<SweepPoint>& exact,
                     const std::vector<SweepPoint>& paperk) {
    for (std::size_t i = 0; i < exact.size() && i < paperk.size(); ++i) {
      if (!exact[i].ok || !paperk[i].ok) continue;
      if (std::isnan(exact[i].bound.delay_ms) ||
          std::isnan(paperk[i].bound.delay_ms)) {
        continue;  // flagged already
      }
      // kMethodTol applies where the K-procedure is near-optimal: not at
      // Delta < 0 (see kMethodTol), and not at an intermediate explicit
      // fixed Delta, where K's integer quantization error scales with
      // Delta / d_e2e (the named schedulers and the EDF fixed point keep
      // it small).  Elsewhere only finiteness must agree.
      const sched::SchedulerSpec& spec = exact[i].scenario.scheduler;
      const bool two_sided =
          exact[i].bound.delta >= 0.0 &&
          !(spec == sched::SchedulerKind::kDelta &&
            std::isfinite(spec.delta()) && spec.delta() != 0.0);
      const Side e = side(exact[i], "exact ");
      const Side k = side(paperk[i], "paper-K ");
      if (compare("method-agreement", e, Rel::kAgrees, k,
                  two_sided ? kMethodTol : kInf)) {
        (void)verdict("method-agreement", e, Rel::kNotAbove, k);
      }
    }
  }
};

/// Solves a scenario list or a grid with the options' threads and solver.
template <typename Input>
SweepReport solve_all(const Input& input, const SelfCheckOptions& options,
                      e2e::Method method,
                      e2e::WarmStart warm_start = e2e::WarmStart::kWarm) {
  SweepOptions so;
  so.threads = options.threads;
  so.method = method;
  so.solver = options.solver;
  so.warm_start = warm_start;
  return SweepRunner(so).run(input);
}

/// Shared backend of all self_check overloads: solve once, run the point
/// and ordering checks, then the grid-only and method checks.
SelfCheckReport run_checks(std::span<const e2e::Scenario> scenarios,
                           const SelfCheckOptions& options,
                           const SweepGrid* grid) {
  Checker checker;
  const SweepReport primary = solve_all(scenarios, options, options.method);
  checker.report.points = primary.points.size();
  for (const SweepPoint& p : primary.points) {
    checker.check_point(p, !options.solver);
  }
  checker.check_ordering(primary.points);
  if (grid != nullptr) checker.check_monotonicity(*grid, primary.points);
  if (!options.solver) {
    const bool primary_is_exact = options.method == e2e::Method::kExactOpt;
    const SweepReport secondary =
        solve_all(scenarios, options,
                  primary_is_exact ? e2e::Method::kPaperK
                                   : e2e::Method::kExactOpt);
    checker.report.points += secondary.points.size();
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
  Checker checker;
  const SweepReport cold =
      solve_all(grid, options, options.method, e2e::WarmStart::kCold);
  const SweepReport warm = solve_all(grid, options, options.method);
  checker.report.points = cold.points.size() + warm.points.size();
  for (std::size_t i = 0;
       i < cold.points.size() && i < warm.points.size(); ++i) {
    checker.compare("warm-start", side(cold.points[i]), Rel::kAgrees,
                    side(warm.points[i], "warm "));
  }
  return std::move(checker.report);
}

SelfCheckReport self_check_profile(std::span<const e2e::Scenario> scenarios,
                                   std::span<const double> epsilons,
                                   const SelfCheckOptions& options) {
  Checker checker;
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
    const auto level = [&](const e2e::DelayProfile& profile, std::size_t i,
                           const char* label) {
      return Side{profile.levels[i], true,
                  std::string(label) + " profile level at eps=" +
                      fmt(cold.epsilons[i]) + " for " + describe(sc)};
    };
    for (std::size_t i = 0; i < cold.levels.size(); ++i) {
      // Pinning: the cold profile level must be bit-identical to an
      // independent scalar solve of the same scenario at this epsilon.
      e2e::Scenario at_eps = sc;
      at_eps.epsilon = cold.epsilons[i];
      const e2e::BoundResult scalar = cold_solver.solve(at_eps);
      ++checker.report.points;
      checker.compare("profile-pinning", level(cold, i, "cold"),
                      Rel::kSameBits, Side{scalar, true, "the scalar solve"});
      // Classification: a non-finite level must say why.
      const e2e::BoundResult& c = cold.levels[i];
      checker.expect("profile-classification",
                     std::isfinite(c.delay_ms) || !c.diagnostics.ok(), [&] {
                       return "unclassified " + text(level(cold, i, "cold"));
                     });
      checker.compare("profile-warm", level(cold, i, "cold"), Rel::kAgrees,
                      level(warm, i, "warm"));
    }
    // Monotonicity: d(epsilon) non-increasing in epsilon, for both the
    // cold and the warm profile, walking the levels in ascending-epsilon
    // order whatever order the caller's grid uses.
    std::vector<std::size_t> order(cold.epsilons.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return cold.epsilons[a] < cold.epsilons[b];
    });
    for (const auto& [profile, label] :
         {std::pair{&cold, "cold"}, std::pair{&warm, "warm"}}) {
      for (std::size_t k = 1; k < order.size(); ++k) {
        const std::size_t tighter = order[k - 1];
        const std::size_t looser = order[k];
        if (std::isnan(profile->levels[tighter].delay_ms) ||
            std::isnan(profile->levels[looser].delay_ms)) {
          continue;  // flagged
        }
        // Larger epsilon must not yield the larger bound.
        checker.compare("profile-monotonicity", level(*profile, looser, label),
                        Rel::kNotAbove, level(*profile, tighter, label),
                        kWarmStartRelTol, "d(epsilon) non-increasing");
      }
    }
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
      profile_bases.push_back(base);
      profile_bases.back().scheduler = kind;  // keeps the EDF factors
    }
    profile_bases.push_back(base);
    profile_bases.back().scheduler = sched::SchedulerSpec::gps(1.0, 1.0);
  }
  report += self_check_profile(profile_bases, profile_eps, options);

  // Delta interpolation (the journal version's continuous sweep between
  // FIFO and BMUX) on the Fig. 2 grid: for fixed traffic the bound must
  // be non-decreasing in Delta (the "delta" axis has direction +1, and
  // the within-group ordering re-verifies via the resolved Delta).  The
  // endpoints Delta = 0 / +inf must equal the fifo / bmux bounds bit
  // for bit: the solver routes all four through the same fixed-Delta
  // path, so any difference is a routing bug.
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
    std::vector<e2e::Scenario> endpoints;
    for (double u : cross_utils) {
      for (const sched::SchedulerSpec& spec :
           {sched::SchedulerSpec::fixed_delta(0.0),
            sched::SchedulerSpec(sched::SchedulerKind::kFifo),
            sched::SchedulerSpec::fixed_delta(kInf),
            sched::SchedulerSpec(sched::SchedulerKind::kBmux)}) {
        endpoints.push_back(base);
        endpoints.back().n_cross = flows_for_utilization(base, u);
        endpoints.back().scheduler = spec;
      }
    }
    Checker checker;
    const SweepReport r = solve_all(endpoints, options, options.method);
    checker.report.points = r.points.size();
    for (std::size_t i = 0; i + 1 < r.points.size(); i += 2) {
      checker.compare("delta-endpoint", side(r.points[i]), Rel::kSameBits,
                      side(r.points[i + 1]));
    }
    report += checker.report;
  }

  // Fig. 3 (Example 2): traffic-mix lists at constant U = 50% with both
  // EDF deadline settings; the mix co-varies U0 and Uc, so this is an
  // explicit list (ordering groups form per mix point).
  for (int hops : {2, 5, 10}) {
    std::vector<e2e::Scenario> scenarios;
    for (int mix_pct = 10; mix_pct <= 90; mix_pct += 10) {
      const double uc = 0.50 * mix_pct / 100.0;
      const double u0 = 0.50 - uc;
      using K = sched::SchedulerKind;
      for (const auto& [kind, own, cross] :
           {std::tuple{K::kEdf, 1.0, 2.0}, std::tuple{K::kFifo, 1.0, 1.0},
            std::tuple{K::kEdf, 1.0, 0.5}, std::tuple{K::kBmux, 1.0, 1.0},
            std::tuple{K::kSpHigh, 1.0, 1.0}}) {
        scenarios.push_back(ScenarioBuilder()
                                .hops(hops)
                                .through_utilization(u0)
                                .cross_utilization(uc)
                                .violation_probability(1e-9)
                                .scheduler(kind)
                                .edf_deadlines(own, cross)
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
  Checker checker;
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
  // lo's bound must not exceed hi's.
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
        scenarios.push_back(base);
        scenarios.back().scheduler = spec;
      }
    }
  }
  const std::size_t operating = scenarios.size();
  // GPS isolation: overload the link (total utilization >= 1) while the
  // through class's guaranteed share 0.75 C still exceeds its load
  // 0.45 C.  GPS must keep a finite bound; BMUX (which sees the
  // aggregate) must diverge.
  for (int hops : {2, 5, 10}) {
    e2e::Scenario sc = ScenarioBuilder()
                           .hops(hops)
                           .through_utilization(0.45)
                           .cross_utilization(0.60)
                           .violation_probability(1e-9)
                           .build();
    sc.scheduler = SchedulerSpec::gps(3.0, 1.0);
    scenarios.push_back(sc);
    sc.scheduler = sched::SchedulerKind::kBmux;
    scenarios.push_back(sc);
  }
  const SweepReport r = solve_all(scenarios, options, options.method);
  checker.report.points = r.points.size();
  for (const SweepPoint& p : r.points) {
    checker.check_point(p, !options.solver);
  }
  for (std::size_t base = 0; base < operating; base += variants.size()) {
    for (const Ordering& o : orderings) {
      const SweepPoint& lo = r.points[base + o.lo];
      const SweepPoint& hi = r.points[base + o.hi];
      if (!lo.ok || !hi.ok) continue;  // flagged by check_point already
      checker.compare("curve-ordering", side(lo), Rel::kNotAbove, side(hi),
                      kWarmStartRelTol, o.why);
    }
  }
  for (std::size_t i = operating; i < r.points.size(); ++i) {
    const SweepPoint& p = r.points[i];
    if (!p.ok) continue;
    const bool gps = p.scenario.scheduler.is_curve_backed();
    checker.expect("isolation", gps == std::isfinite(p.bound.delay_ms), [&] {
      return (gps ? "GPS must stay finite (guaranteed rate > through load)"
                  : "BMUX must diverge (total utilization >= 1)") +
             std::string(": ") + text(side(p));
    });
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
      checker.expect("simulation", v.bound_holds, [&] {
        return "simulated " + fmt(100.0 * (1.0 - v.epsilon_sim)) +
               "% delay quantile " + fmt(v.empirical_quantile) +
               " ms exceeds the analytic bound " + fmt(v.bound_at_eps_sim) +
               " ms at that level for " + describe(sc);
      });
    }
  }
  return std::move(checker.report);
}

}  // namespace deltanc
