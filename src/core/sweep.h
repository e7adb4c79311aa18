// Parallel scenario-sweep engine.  Every figure of the paper and every
// study in EXPERIMENTS.md is a *grid* of scenario solves -- over
// utilization, path length, traffic mix, scheduler, deadlines, and
// epsilon.  SweepRunner fans such a grid out with parallel_for
// (core/thread_pool.h) and returns the results in deterministic input
// order regardless of completion order.
//
// One executor runs every sweep: the points are split into chain
// segments, each segment is solved sequentially by one worker through
// one Solver::State, and distinct segments run in parallel.
// Warm-started grids (SweepOptions::warm_start = kWarm, the default)
// chain along the innermost numeric axis: neighboring points there
// differ in one parameter, so each point seeds its neighbor (the
// stable-s bracket, the previous optimum, and the resolved EDF fixed
// point).  A chain of L points runs as ceil(L / 6) near-equal segments
// that follow each other along the axis; each segment threads its own
// State, so its first point is solved cold.  The split depends on the
// grid alone -- a 1-thread and an N-thread run produce bit-identical
// reports, and an axis of at most 6 points is one segment.  Warm
// results may differ from cold ones within the documented warm-start
// tolerance (docs/API.md#warm-starts).  Every other sweep -- kCold, a
// grid with no numeric axis of more than one value, an explicit
// scenario list, or a custom SweepOptions::solver -- runs segments of
// one point under a kCold solver, where each point is a pure function
// of its scenario.
//
// Grids are described by SweepGrid: a base e2e::Scenario plus axes.  The
// cross product enumerates axes in the order they were added, first axis
// outermost (row-major): for axes A, B with |B| = m, point i varies B
// fastest, i.e. i = a * m + b.  Non-gridded workloads (e.g. Fig. 3's
// traffic mix, where U0 and Uc co-vary) pass an explicit scenario list to
// SweepRunner::run instead.
//
// Failure policy: every resolved scenario is validated before it is
// solved (Scenario::validate()), so a malformed point is classified as
// kInvalidScenario with a message naming every bad field; a point whose
// solve still throws is captured (ok = false, error = what(), classified
// kNumericalDomain) and never aborts the sweep; an unstable configuration
// simply reports its +inf bound.  Either way the remaining points are
// unaffected, and SweepReport::counts_by_kind() tallies outcomes per
// diag::SolveErrorKind.
#pragma once

#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/table.h"
#include "e2e/param_search.h"

namespace deltanc {

/// A base scenario plus sweep axes; enumerates the cross product in
/// deterministic row-major order (first-added axis outermost).
class SweepGrid {
 public:
  explicit SweepGrid(e2e::Scenario base = {});

  // Each *_axis call appends one axis.  Values are applied to the base
  // scenario exactly like the corresponding ScenarioBuilder setter
  // (utilizations are converted to whole flow counts against the base
  // capacity and source).  An axis with no values makes the grid empty.
  SweepGrid& hops_axis(std::vector<int> values);
  /// Full scheduler identities: each value *replaces* the scenario's
  /// scheduler spec wholesale (including EDF factors / fixed offsets).
  SweepGrid& scheduler_axis(std::vector<sched::SchedulerSpec> values);
  /// Scheduler kinds only: each value re-assigns the kind but keeps the
  /// EDF factors of the base scenario, so it composes with edf_axis and
  /// edf_deadlines in either order -- the historical behavior.
  SweepGrid& scheduler_axis(std::vector<sched::SchedulerKind> values);
  /// Disambiguates brace-enclosed kind lists (kinds convert implicitly
  /// to specs, so `{kFifo, kBmux}` would otherwise match both vector
  /// overloads); routes to the kinds-only overload above.
  SweepGrid& scheduler_axis(std::initializer_list<sched::SchedulerKind> values) {
    return scheduler_axis(std::vector<sched::SchedulerKind>(values));
  }
  SweepGrid& edf_axis(std::vector<sched::EdfFactors> values);
  /// Continuous Delta axis: each value makes the scheduler an explicit
  /// fixed-Delta spec (sched::SchedulerSpec::fixed_delta).  Values may be
  /// +/-inf -- Delta=0 solves identically to fifo, Delta=+inf to bmux --
  /// which is the paper's FIFO<->BMUX interpolation experiment.
  SweepGrid& delta_axis(std::vector<double> values);
  SweepGrid& through_flows_axis(std::vector<int> values);
  SweepGrid& cross_flows_axis(std::vector<int> values);
  SweepGrid& through_utilization_axis(std::vector<double> values);
  SweepGrid& cross_utilization_axis(std::vector<double> values);
  SweepGrid& epsilon_axis(std::vector<double> values);
  SweepGrid& capacity_axis(std::vector<double> values);

  /// `steps` evenly spaced values from lo to hi inclusive (steps >= 2);
  /// steps == 1 yields {lo}.  @throws std::invalid_argument if steps < 1.
  static std::vector<double> linspace(double lo, double hi, int steps);

  [[nodiscard]] const e2e::Scenario& base() const noexcept { return base_; }
  /// Number of axes added so far.
  [[nodiscard]] std::size_t axes() const noexcept { return axes_.size(); }
  /// Value count of axis `a`.
  [[nodiscard]] std::size_t axis_size(std::size_t a) const;
  /// Name of axis `a` ("hops", "scheduler", ...), for logs.
  [[nodiscard]] const std::string& axis_name(std::size_t a) const;
  /// Whether axis `a` varies a number (hops, flows, utilizations,
  /// epsilon, capacity, delta) rather than a scheduler identity or EDF
  /// factors; warm-start chains follow only numeric axes.
  [[nodiscard]] bool axis_numeric(std::size_t a) const;
  /// Total number of grid points (1 for a grid with no axes: the base).
  [[nodiscard]] std::size_t size() const noexcept;

  /// The fully resolved scenario of point `i` (row-major decode).
  /// @throws std::out_of_range if i >= size().
  [[nodiscard]] e2e::Scenario scenario_at(std::size_t i) const;
  /// All scenarios, in input order.
  [[nodiscard]] std::vector<e2e::Scenario> scenarios() const;

 private:
  struct Axis {
    std::string name;
    // One mutator per axis value; applied to a copy of the base.
    std::vector<std::function<void(e2e::Scenario&)>> values;
    bool numeric = false;  // see axis_numeric()
  };

  SweepGrid& add_axis(Axis axis);

  e2e::Scenario base_;
  std::vector<Axis> axes_;
};

/// One solved grid point.
struct SweepPoint {
  e2e::Scenario scenario;   ///< the fully resolved input scenario
  e2e::BoundResult bound;   ///< delay_ms = +inf when unstable or failed
  /// Full d(epsilon) artifact of this point, filled only when
  /// SweepOptions::profile_epsilons is non-empty (and distinct from the
  /// grid's `epsilon` *axis*, which still varies the scenario's own
  /// target level).  `bound` stays the scalar solve at the scenario's
  /// epsilon either way.  Held out of line (null when absent): most
  /// sweeps carry no profile, and an inline one would be over a quarter
  /// of every point's footprint.
  std::shared_ptr<const e2e::DelayProfile> profile;
  double solve_ms = 0.0;    ///< wall-clock of this solve (informational)
  bool ok = true;           ///< false when the solve threw
  std::string error;        ///< exception message when !ok
};

/// Results of one sweep, in input order.
struct SweepReport {
  std::vector<SweepPoint> points;
  int threads = 1;          ///< worker count actually used
  /// Chain segments run (one Solver::State each); equals the point
  /// count when every point solved cold.
  std::size_t chains = 0;
  double wall_ms = 0.0;     ///< end-to-end wall clock of the sweep
  double solve_ms = 0.0;    ///< sum of per-point solve times (~CPU time)
  e2e::SolveStats stats{};  ///< solver instrumentation summed over points

  [[nodiscard]] std::size_t failures() const;    ///< points with !ok
  [[nodiscard]] std::size_t unstable() const;    ///< ok but +inf bound
  /// Points that solved ok but carry at least one diagnostics warning
  /// (e.g. an EDF fixed point that exhausted its retries).
  [[nodiscard]] std::size_t warned() const;
  /// Points that solved ok only after a recovery (EDF damping restarts
  /// or dense-scan fallbacks; see SolveStats::retries / fallbacks).
  [[nodiscard]] std::size_t recovered() const;
  /// Per-kind tallies across all points: each failed point's error class,
  /// every warning of ok points, and ok-but-+inf points as kUnstable when
  /// a custom solver left them unclassified.
  [[nodiscard]] diag::ErrorCounts counts_by_kind() const;

  /// One row per point: index, H, scheduler, N0, Nc, U[%], eps,
  /// delay[ms], gamma, s, delta, solve[ms], status.
  [[nodiscard]] Table to_table(int precision = 3) const;
  /// to_table() rendered as CSV.
  void write_csv(std::ostream& os, int precision = 6) const;
  /// Long-format CSV of the per-point delay profiles: header
  /// `point,hops,scheduler,n0,nc,u_pct,epsilon,delay_ms,gamma,s,sigma,delta`
  /// then one row per (point, epsilon level), full `%.17g` precision so
  /// the emission is byte-deterministic and round-trips exactly.  Points
  /// without a profile are skipped.
  void write_profile_csv(std::ostream& os) const;
};

/// Options for SweepRunner.
struct SweepOptions {
  /// Worker count; 0 = DELTANC_THREADS env or hardware_concurrency().
  int threads = 0;
  /// Solver method passed through to deltanc::Solver.
  e2e::Method method = e2e::Method::kExactOpt;
  /// Grid warm-start policy (see the header comment): kWarm chains a
  /// Solver::State along the innermost numeric axis of run(grid), in
  /// segments of at most 6 points whose first point is solved cold;
  /// kCold solves every point from scratch.  Ignored (always cold) for
  /// the explicit-list overload and when `solver` is set.
  e2e::WarmStart warm_start = e2e::WarmStart::kWarm;
  /// Per-point solver override (default: deltanc::Solver::solve).  Used
  /// e.g. for the additive baseline (e2e::best_additive_bmux_bound).
  /// A custom solver disables warm-start chaining (and profiles: a
  /// scalar override cannot produce d(epsilon) artifacts).
  std::function<e2e::BoundResult(const e2e::Scenario&, e2e::Method)> solver;
  /// When non-empty, every point additionally solves this d(epsilon)
  /// grid via Solver::solve_profile into SweepPoint::profile (each level
  /// in (0, 1)).  Under kWarm the profile shares the chain state with
  /// the scalar solve; under kCold the levels are independent cold
  /// solves (the pinning contract).  Ignored when `solver` is set.
  std::vector<double> profile_epsilons;
  /// Called after each point completes with (done, total).  Invocations
  /// are serialized (ProgressCounter, core/thread_pool.h), so the
  /// callback need not be thread-safe; `done` is strictly increasing
  /// from 1 to total.
  std::function<void(std::size_t done, std::size_t total)> progress;
};

/// Parallel executor for scenario grids.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Solves every point of the grid; results in grid order.
  [[nodiscard]] SweepReport run(const SweepGrid& grid) const;
  /// Solves an explicit scenario list cold (no chaining); results in
  /// list order.
  [[nodiscard]] SweepReport run(std::span<const e2e::Scenario> scenarios) const;

  /// The worker count run() will use for `n_tasks` tasks (never more
  /// threads than tasks, never fewer than 1).
  [[nodiscard]] int resolved_threads(std::size_t n_tasks) const;

 private:
  /// The one executor behind both run() overloads: the scenarios
  /// decomposed into `n / chain_len` chains (consecutive chain members
  /// are `stride` apart in the flat enumeration), each split into
  /// segments of at most 6 points and each segment solved sequentially
  /// through one Solver::State -- kWarm when chain_len > 1, kCold
  /// otherwise.
  [[nodiscard]] SweepReport run_chains(std::span<const e2e::Scenario> scenarios,
                                       std::size_t chain_len,
                                       std::size_t stride) const;

  SweepOptions options_;
};

}  // namespace deltanc
