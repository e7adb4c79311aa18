// Invariant self-checks: machine-checkable consequences of the paper's
// theory, used as a correctness oracle for the numeric solver.
//
// The delay bound of Theorem 1 is monotone non-decreasing in the
// scheduler offset Delta, so for any fixed scenario the resolved bounds
// must order as SP-high (Delta = -inf) <= EDF <= FIFO (Delta = 0) <=
// BMUX (Delta = +inf) -- more precisely, delays sorted by resolved Delta
// must be non-decreasing, which also orders the two EDF variants of
// Fig. 3 correctly.  The bound is likewise monotone in the workload:
// non-decreasing in hops, flow counts, and utilization; non-increasing
// in epsilon and capacity.  Finally, the paper's K-procedure
// (Method::kPaperK) is a restricted version of the exact optimization
// (Method::kExactOpt), so kExactOpt <= kPaperK always, and the two agree
// within a modest factor on the operating ranges of the figures.
//
// Curve-backed schedulers (gps/drr/sced) carry no Delta coordinate --
// their bounds come from a deterministic rate-latency leftover curve
// (sched::SchedulerSpec::rate_latency) -- so the Delta-specific checks
// skip them, and the finiteness check accepts finite bounds at total
// utilization >= 1 when the guaranteed rate still exceeds the through
// load (GPS isolation).  Their own invariants live in
// self_check_curve_backed(): share/quantum monotonicity, GPS(1,1) as a
// lower envelope of the per-hop SP-high analysis, GPS as a lower
// envelope of DRR with the same split, sced == gps on symmetric loads,
// and the isolation property itself.
//
// self_check() solves a scenario, list, or grid and verifies every
// invariant that applies; self_check_figures() runs the full Fig. 2-4
// operating grids (what `deltanc_cli --selfcheck` executes).  Violations
// come back as structured SelfCheckIssue records, never as exceptions.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/sweep.h"

namespace deltanc {

/// Warm-start tolerance contract: a warm-chained sweep
/// (SweepOptions::warm_start = kWarm, the default of run(grid)) may
/// deviate from the cold solve of the same grid by at most this relative
/// amount per point, and must agree exactly on finiteness.  Warm starts
/// seed the s probe and the EDF fixed point from the neighboring
/// optimum, so the golden refinement and the damped iteration can stop
/// at a slightly different -- equally valid -- optimum; the EDF fixed
/// point's own 1e-7 relative stopping tolerance dominates the deviation,
/// and 1e-4 gives it two orders of headroom.  Enforced by
/// self_check_warm_start() (part of self_check_figures(), i.e. of
/// `deltanc_cli --selfcheck` and check.sh); documented in
/// docs/API.md#warm-starts.
inline constexpr double kWarmStartRelTol = 1e-4;

/// Tuning knobs for self_check().  The defaults match the numerical
/// headroom of the Fig. 2-4 operating points.
struct SelfCheckOptions {
  /// Primary solve method (the method-agreement check always compares
  /// kExactOpt against kPaperK regardless).
  e2e::Method method = e2e::Method::kExactOpt;
  /// Worker threads for the underlying sweeps; 0 = DELTANC_THREADS env
  /// or hardware concurrency.
  int threads = 0;
  /// Run the kExactOpt vs kPaperK agreement check (doubles the solves).
  bool check_methods = true;
  /// Per-point solver override, mirroring SweepOptions::solver (used by
  /// tests to inject broken solvers).  When set, the unclassified-+inf
  /// check and the method-agreement check are skipped.
  std::function<e2e::BoundResult(const e2e::Scenario&, e2e::Method)> solver;
};

/// One violated invariant.
struct SelfCheckIssue {
  std::string check;   ///< "finiteness", "ordering", "monotonicity", ...
  std::string detail;  ///< human-readable description with the operands
};

/// Outcome of one self_check() run; merge runs with operator+=.
struct SelfCheckReport {
  std::size_t points = 0;  ///< scenarios solved
  std::size_t checks = 0;  ///< individual invariant comparisons performed
  std::vector<SelfCheckIssue> issues;

  [[nodiscard]] bool ok() const noexcept { return issues.empty(); }
  /// "N points, M checks, K issue(s)".
  [[nodiscard]] std::string summary() const;

  SelfCheckReport& operator+=(const SelfCheckReport& other);
};

/// Checks an explicit scenario list: finiteness/NaN-freedom and
/// classification of every solve, Delta-ordering within groups of
/// scenarios that differ only in scheduler/deadlines, and kExactOpt vs
/// kPaperK agreement.
[[nodiscard]] SelfCheckReport self_check(
    std::span<const e2e::Scenario> scenarios,
    const SelfCheckOptions& options = {});

/// Checks a grid: everything the list overload checks, plus monotonicity
/// along every axis with a theory-known direction (hops, n0, nc, u0, uc
/// up => delay up; epsilon, capacity up => delay down).
[[nodiscard]] SelfCheckReport self_check(const SweepGrid& grid,
                                         const SelfCheckOptions& options = {});

/// Checks one scenario by expanding it into all four schedulers (the
/// scenario's own EDF deadlines are kept for the EDF variant).
[[nodiscard]] SelfCheckReport self_check(const e2e::Scenario& scenario,
                                         const SelfCheckOptions& options = {});

/// The full battery over the paper's Fig. 2-4 operating grids, extended
/// with SP-high: what `deltanc_cli --selfcheck` runs.  Includes the
/// warm-start agreement battery (self_check_warm_start) on the Fig. 2
/// grids.
[[nodiscard]] SelfCheckReport self_check_figures(
    const SelfCheckOptions& options = {});

/// Warm-start agreement battery: solves `grid` twice -- cold
/// (warm_start = kCold, every point from scratch) and warm (kWarm, the
/// chained default) -- and checks that each point agrees on finiteness
/// and, where finite, deviates by at most kWarmStartRelTol relative.
/// This is the enforcement of the warm-start tolerance contract.
[[nodiscard]] SelfCheckReport self_check_warm_start(
    const SweepGrid& grid, const SelfCheckOptions& options = {});

/// Delay-profile battery (part of self_check_figures, i.e. of
/// `deltanc_cli --selfcheck`): for every scenario the epsilon grid is
/// solved three ways -- independent cold scalar solves, a cold profile
/// (Solver::solve_profile at warm_start = kCold), and a warm chained
/// profile -- and four invariants are enforced:
///   - pinning: every cold-profile level is *bit-identical* to the
///     scalar solve of the same scenario at that epsilon (the profile
///     engine must not perturb the cold path);
///   - warm tolerance: every warm level agrees with its cold value on
///     finiteness and deviates by at most kWarmStartRelTol relative;
///   - monotonicity: d(epsilon) is non-increasing in epsilon for both
///     profiles (a looser violation probability cannot raise the bound);
///   - classification: every non-finite level carries a diagnostic.
[[nodiscard]] SelfCheckReport self_check_profile(
    std::span<const e2e::Scenario> scenarios,
    std::span<const double> epsilons, const SelfCheckOptions& options = {});

/// The curve-backed scheduler battery (what `deltanc_cli --selfcheck`
/// runs when --scheduler names a gps/drr/sced spec), over H = 2, 5, 10
/// and symmetric loads U = 30, 50, 90%:
///   - GPS bounds are non-increasing in the through weight share;
///   - GPS(1,1) (half the link, but its deterministic curve pays the
///     through burst once end-to-end) bounds the per-hop SP-high
///     Theorem-1 analysis from below;
///   - DRR bounds are non-increasing in the through quantum, and
///     GPS(phi, phi) bounds DRR(phi, phi) from below (same rate, DRR
///     adds a round-robin latency);
///   - sced agrees with gps(1,1) on symmetric loads (load-proportional
///     == equal-weight sharing when the loads are equal);
///   - GPS isolation: at total utilization >= 1 a gps(3,1) through
///     class with guaranteed rate above its load keeps a finite bound
///     while BMUX diverges;
///   - simulation cross-check: the slot-level simulator (which runs the
///     actual deficit-counter / deadline-curve disciplines) must keep
///     its empirical delay quantiles below the analytic bounds for
///     gps(1,1), drr(1,1), and sced on a symmetric two-hop scenario.
[[nodiscard]] SelfCheckReport self_check_curve_backed(
    const SelfCheckOptions& options = {});

}  // namespace deltanc
