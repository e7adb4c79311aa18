#include "e2e/param_search.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "e2e/delay_bound.h"
#include "e2e/k_procedure.h"
#include "e2e/network_epsilon.h"
#include "e2e/solve_state.h"

namespace deltanc::e2e {

SolveStats& SolveStats::operator+=(const SolveStats& other) {
  optimize_evals += other.optimize_evals;
  eb_evals += other.eb_evals;
  sigma_evals += other.sigma_evals;
  edf_iterations += other.edf_iterations;
  edf_converged = edf_converged && other.edf_converged;
  retries += other.retries;
  fallbacks += other.fallbacks;
  scan_ms += other.scan_ms;
  refine_ms += other.refine_ms;
  batched_evals += other.batched_evals;
  warm_start_hits += other.warm_start_hits;
  brackets_reused += other.brackets_reused;
  profile_levels += other.profile_levels;
  profile_chain_hits += other.profile_chain_hits;
  return *this;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

void validate_scenario(const Scenario& sc) {
  sc.validate().throw_if_invalid("Solver");
}

/// Largest s keeping n * eb(s) < C (the bisection behind max_stable_s),
/// parameterized on the eb evaluator so the solvers can count its calls.
/// The bisection stops once the midpoint rounds onto an end: lo and hi
/// are then adjacent doubles and no later step could move either, so
/// the result is the one a full 200 steps would give.
template <typename EbFn>
double stable_s_limit(double n, double capacity, double mean_rate,
                      double peak_rate, EbFn&& eb) {
  if (n * mean_rate >= capacity) return 0.0;
  if (n * peak_rate < capacity) return kInf;
  double lo = 1e-9, hi = 1.0;
  while (n * eb(hi) < capacity) hi *= 2.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    if (n * eb(mid) < capacity) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// The s interval both searches scan: (1e-4, 0.999 limit], an infinite
/// limit (n * peak < C) capped at 64 -- so the bound jumps where n * peak
/// crosses C and is not monotone in C there.  A window that closes below
/// the default lower probe is widened downward (`degenerate`) so the
/// scans still sample feasible s; an unstable limit (0) is left as is.
struct SBracket {
  double lo;
  double hi;
  bool degenerate;
};

SBracket s_bracket(double limit) {
  const double hi = (limit == kInf ? 64.0 : limit) * 0.999;
  if (limit == 0.0 || hi > 1e-4) return {1e-4, hi, false};
  return {hi * 1e-4, hi, true};
}

/// Per-scenario state of the nested search, built once per solve instead
/// of once per (s, gamma) evaluation: the reusable theta-solver
/// workspace, the stability-limited s bracket, and the instrumentation
/// counters.
struct SearchContext {
  SearchContext(const Scenario& sc_in, Method method_in)
      : sc(sc_in), method(method_in) {
    const double n = sc.n_through + sc.n_cross;
    const double limit =
        stable_s_limit(n, sc.capacity, sc.source.mean_rate(),
                       sc.source.peak_rate(), [this](double s) { return eb(s); });
    unstable = (limit == 0.0);
    // solve_for_delta falls back to a dense scan on a degenerate bracket.
    const SBracket b = s_bracket(limit);
    s_lo = b.lo;
    s_hi = b.hi;
    degenerate_bracket = b.degenerate;
  }

  /// eb(s) of the source, one call counted in stats.eb_evals.
  double eb(double s) {
    ++stats.eb_evals;
    return sc.source.effective_bandwidth(s);
  }

  const Scenario& sc;
  Method method;
  SolveWorkspace ws;
  SolveStats stats;
  double s_lo = 1e-4;
  double s_hi = 0.0;
  bool unstable = false;
  bool degenerate_bracket = false;
  // Search budget policy (detail::SearchEffort) plus the per-solve latch:
  // solve_for_delta arms `local_now` only after a kLocal warm probe lands,
  // and best_over_gamma reads it to pick its scan/golden budgets.  With
  // kFull (every non-profile solve) the budgets are the historical
  // constants, evaluation for evaluation.
  detail::SearchEffort effort = detail::SearchEffort::kFull;
  bool local_now = false;
};

PathParams params_from_eb(const SearchContext& ctx, double s, double eb_s,
                          double delta) {
  return PathParams{ctx.sc.capacity,
                    ctx.sc.hops,
                    ctx.sc.n_through * eb_s,
                    ctx.sc.n_cross * eb_s,
                    s,
                    1.0,
                    delta};
}

/// Delay at one gamma for hoisted per-s invariants (p, sigma_of).
double delay_at(SearchContext& ctx, const PathParams& p,
                const SigmaForEpsilon& sigma_of, double gamma) {
  if (!(gamma > 0.0) || !(gamma < p.gamma_limit())) return kInf;
  ++ctx.stats.sigma_evals;
  const double sigma = sigma_of(gamma);
  ++ctx.stats.optimize_evals;
  switch (ctx.method) {
    case Method::kExactOpt:
      return optimize_delay(p, gamma, sigma, ctx.ws).delay;
    case Method::kPaperK:
      return k_procedure_delay(p, gamma, sigma, ctx.ws).delay;
  }
  return kInf;
}

/// Golden-section minimization of a continuous function on [lo, hi],
/// seeded by a coarse scan so that a locally non-unimodal objective still
/// lands in the right valley.
template <typename F>
double minimize_scalar(F f, double lo, double hi, int scan_points,
                       int golden_iters, double* best_arg) {
  double best_x = lo;
  double best_v = kInf;
  for (int i = 0; i <= scan_points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / scan_points;
    const double v = f(x);
    if (v < best_v) {
      best_v = v;
      best_x = x;
    }
  }
  const double step = (hi - lo) / scan_points;
  double a = std::max(lo, best_x - step);
  double b = std::min(hi, best_x + step);
  const double inv_phi = 0.6180339887498949;
  double x1 = b - inv_phi * (b - a);
  double x2 = a + inv_phi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  for (int iter = 0; iter < golden_iters; ++iter) {
    if (f1 < f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - inv_phi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + inv_phi * (b - a);
      f2 = f(x2);
    }
  }
  const double xm = 0.5 * (a + b);
  const double vm = f(xm);
  if (vm < best_v) {
    best_v = vm;
    best_x = xm;
  }
  if (best_arg != nullptr) *best_arg = best_x;
  return best_v;
}

/// Best delay over gamma for fixed s; returns +inf when unstable.  The
/// gamma-independent invariants (PathParams from one eb(s) evaluation and
/// the sigma(epsilon) prefactors) are computed here, once per s, instead
/// of inside every evaluation of the inner golden-section search.
///
/// The coarse scan's probes lie strictly inside (0, glim), so every one
/// of them is evaluated; for the exact optimizer they are counted in
/// stats.batched_evals (coarse gamma-scan evaluations).
double best_over_gamma(SearchContext& ctx, double delta, double s,
                       double eb_s, double* best_gamma) {
  const PathParams p = params_from_eb(ctx, s, eb_s, delta);
  const double glim = p.gamma_limit();
  if (!(glim > 0.0)) return kInf;
  const SigmaForEpsilon sigma_of(p, ctx.sc.epsilon);
  const double lo = 1e-4 * glim;
  const double hi = 0.9999 * glim;
  // Reduced budget only while a kLocal warm probe has landed (profile
  // descent); otherwise the historical 24/48 schedule, bit-identical.
  const int kScanPoints = ctx.local_now ? 12 : 24;
  const int kGoldenIters = ctx.local_now ? 24 : 48;
  const double best_v = minimize_scalar(
      [&](double gamma) { return delay_at(ctx, p, sigma_of, gamma); }, lo,
      hi, kScanPoints, kGoldenIters, best_gamma);
  if (ctx.method == Method::kExactOpt) {
    ctx.stats.batched_evals += kScanPoints + 1;
  }
  return best_v;
}

/// One full (s, gamma) optimization at fixed delta.  When `warm` carries
/// a finite previous optimum (EDF fixed point, or an external warm-start
/// state), the 29-point coarse scan over s is replaced by a single probe
/// at the warm-started s; the golden refinement then re-localizes the
/// optimum from there.  `external_warm` marks a probe seeded from a
/// SolveState (counted in stats.warm_start_hits when it lands).
BoundResult solve_for_delta(SearchContext& ctx, double delta,
                            const BoundResult* warm,
                            bool external_warm = false) {
  BoundResult result{kInf, 0.0, 0.0, 0.0, delta};
  if (ctx.unstable) {  // unstable at any s
    result.diagnostics.fail(
        diag::SolveErrorKind::kUnstable,
        "offered load " + fmt(100.0 * ctx.sc.utilization()) +
            "% of capacity; no stable Chernoff parameter exists");
    return result;
  }
  const double s_lo = ctx.s_lo;
  const double s_hi = ctx.s_hi;

  const int kScan = 28;
  const double ratio = std::pow(s_hi / s_lo, 1.0 / kScan);
  double best_s = s_lo;
  double best_v = kInf;
  const auto scan_t0 = Clock::now();
  ctx.local_now = false;
  if (warm != nullptr && std::isfinite(warm->delay_ms) && warm->s > 0.0) {
    // A kLocal solve runs even the probe at the reduced budget; if the
    // probe misses, local_now drops and everything below (coarse scan,
    // dense fallback, refinement) runs at the full budget.
    ctx.local_now = ctx.effort == detail::SearchEffort::kLocal;
    const double s = std::clamp(warm->s, s_lo, s_hi);
    best_v = best_over_gamma(ctx, delta, s, ctx.eb(s), nullptr);
    best_s = s;
    if (external_warm && best_v != kInf) ++ctx.stats.warm_start_hits;
    if (best_v == kInf) ctx.local_now = false;
  }
  if (best_v == kInf) {
    // Coarse logarithmic scan over s (cold start, or warm probe missed).
    for (int i = 0; i <= kScan; ++i) {
      const double s =
          s_lo * std::pow(s_hi / s_lo, static_cast<double>(i) / kScan);
      const double v = best_over_gamma(ctx, delta, s, ctx.eb(s), nullptr);
      if (v < best_v) {
        best_v = v;
        best_s = s;
      }
    }
  }
  if (best_v == kInf || ctx.degenerate_bracket) {
    // Recovery: the coarse scan missed every feasible s (a narrow
    // stability valley), or the bracket was degenerate to begin with.
    // Fall back to a dense logarithmic scan before giving up.
    ++ctx.stats.fallbacks;
    const int kDense = 160;
    for (int i = 0; i <= kDense; ++i) {
      const double s =
          s_lo * std::pow(s_hi / s_lo, static_cast<double>(i) / kDense);
      const double v = best_over_gamma(ctx, delta, s, ctx.eb(s), nullptr);
      if (v < best_v) {
        best_v = v;
        best_s = s;
      }
    }
  }
  ctx.stats.scan_ms += ms_since(scan_t0);
  if (best_v == kInf) {
    result.diagnostics.fail(
        diag::SolveErrorKind::kNumericalDomain,
        "no feasible (s, gamma) found in (0, " + fmt(s_hi) +
            "] even by dense scan; the stability window of Eq. (32) is "
            "numerically empty");
    return result;
  }

  const auto refine_t0 = Clock::now();
  double refined_s = best_s;
  const double refined_v = minimize_scalar(
      [&](double s) { return best_over_gamma(ctx, delta, s, ctx.eb(s), nullptr); },
      std::max(s_lo, best_s / ratio), std::min(s_hi, best_s * ratio),
      ctx.local_now ? 4 : 8, ctx.local_now ? 20 : 32, &refined_s);
  // Keep the argmin over everything seen: the refinement's arithmetic
  // grid need not revisit best_s exactly, so its optimum can come out
  // worse than the scan's already-found value.
  const double final_s = refined_v < best_v ? refined_s : best_s;

  double gamma = 0.0;
  result.delay_ms = best_over_gamma(ctx, delta, final_s, ctx.eb(final_s), &gamma);
  result.gamma = gamma;
  result.s = final_s;
  const PathParams p = params_from_eb(ctx, final_s, ctx.eb(final_s), delta);
  result.sigma = SigmaForEpsilon(p, ctx.sc.epsilon)(gamma);
  ctx.stats.refine_ms += ms_since(refine_t0);
  return result;
}

/// Folds the context's counters into the outgoing result.
BoundResult finish(SearchContext& ctx, BoundResult result) {
  result.stats = ctx.stats;
  return result;
}

/// Curve-backed kinds (GPS / DRR / SCED).  The per-node guarantee is the
/// deterministic rate-latency curve beta_{R,T} of
/// SchedulerSpec::rate_latency; H hops convolve into beta_{R, H T}
/// (docs/THEORY.md#leftover-service-curves-beyond-delta).  Against the
/// through aggregate's statistical sample-path envelope
/// (rho_0(s) + gamma) t with eps(sigma) = e^{-s sigma}/(1 - e^{-s gamma})
/// (M = 1, alpha = s), the delay bound at violation probability eps is
///
///   d(s, gamma) = H T + sigma / R,
///   sigma = ln( 1 / ((1 - e^{-s gamma}) eps) ) / s,
///
/// valid whenever rho_0(s) + gamma <= R.  sigma is decreasing in gamma,
/// so the optimal slack is the closed form gamma* = R - rho0(s), leaving
/// a 1-D minimization over the Chernoff parameter s.  Note the stability
/// condition is *per class*: only the through load competes against the
/// guaranteed rate R, so (unlike the Delta path) a finite bound can exist
/// with total utilization >= 1 -- the GPS isolation property.
BoundResult solve_curve_backed(const Scenario& sc) {
  BoundResult result{kInf, 0.0, 0.0, 0.0,
                     std::numeric_limits<double>::quiet_NaN()};
  const double mean = sc.source.mean_rate();
  const std::optional<sched::RateLatency> rl = sc.scheduler.rate_latency(
      sc.capacity, {sc.n_through * mean, sc.n_cross * mean});
  if (!rl.has_value()) {
    throw std::logic_error("Solver: '" + sched::to_string(sc.scheduler) +
                           "' has no rate-latency form");
  }
  const double rate = rl->rate;
  const double latency = rl->latency * sc.hops;
  SolveStats stats;
  const auto eb = [&](double s) {
    ++stats.eb_evals;
    return sc.source.effective_bandwidth(s);
  };
  const auto done = [&](BoundResult r) {
    r.stats = stats;
    return r;
  };
  const double limit = stable_s_limit(static_cast<double>(sc.n_through), rate,
                                      mean, sc.source.peak_rate(), eb);
  if (limit == 0.0) {
    result.diagnostics.fail(
        diag::SolveErrorKind::kUnstable,
        "through load " + fmt(sc.n_through * mean) +
            " Mbps meets or exceeds the guaranteed rate " + fmt(rate) +
            " Mbps of '" + sched::to_string(sc.scheduler) +
            "'; no stable Chernoff parameter exists");
    return done(result);
  }
  const SBracket b = s_bracket(limit);

  const auto delay_at_s = [&](double s) {
    const double gamma = rate - sc.n_through * eb(s);
    if (!(gamma > 0.0)) return kInf;
    ++stats.sigma_evals;
    ++stats.optimize_evals;
    const double sigma =
        std::log(1.0 / ((1.0 - std::exp(-s * gamma)) * sc.epsilon)) / s;
    if (!std::isfinite(sigma)) return kInf;
    return latency + sigma / rate;
  };
  const auto scan_t0 = Clock::now();
  double best_s = 0.0;
  const double best = minimize_scalar(delay_at_s, b.lo, b.hi, 48, 64, &best_s);
  stats.scan_ms += ms_since(scan_t0);
  if (!std::isfinite(best)) {
    result.diagnostics.fail(
        diag::SolveErrorKind::kNumericalDomain,
        "no feasible s found in (0, " + fmt(b.hi) +
            "]; the per-class stability window is numerically empty");
    return done(result);
  }
  result.delay_ms = best;
  result.s = best_s;
  result.gamma = rate - sc.n_through * eb(best_s);
  result.sigma =
      std::log(1.0 / ((1.0 - std::exp(-best_s * result.gamma)) * sc.epsilon)) /
      best_s;
  return done(result);
}

/// EDF fixed point: deadlines are multiples of d_e2e/H, so Delta =
/// (own - cross) * d_e2e / H depends on the bound itself.  Fixed point
/// seeded with the FIFO bound; one shared context keeps the stable-s
/// bracket across iterations and warm-starts each s scan from the
/// previous iterate.  Non-convergence is recoverable: each retry
/// restarts from the seed with a tighter damping factor before the
/// result is flagged.
///
/// The first attempt (and the warm attempt) accelerates the iteration
/// with a secant step on the residual f(d) = g(d) - d, where g maps a
/// deadline guess to the resulting delay bound.  On the paper grids g
/// is strongly contracting (|g'| ~ 0.05), so the historical beta = 0.5
/// damped update converged at rate ~(1 - beta) -- ~25 solves per point,
/// dominating the Fig. 2 sweep -- while the secant step reaches the
/// same 1e-7 band in 3-5 solves.  A secant step that goes non-finite,
/// non-positive, or more than 4x away from the current iterate falls
/// back to the damped update for that step, and the damped restart
/// schedule below is untouched, so robustness is unchanged.
///
/// Given the neighbor's finite optimum `warm_prev` and resolved fixed
/// point `warm_d`, one warm attempt runs first -- iterating from that d
/// (and probing from that optimum) instead of re-deriving the FIFO seed.
/// If the warm attempt fails to converge or goes non-finite, the full
/// cold schedule runs unchanged, so warm-starting never degrades
/// robustness.  `resolved_d` receives the fixed point the returned
/// result was solved at; it stays empty when the solve went unstable.
BoundResult solve_edf(SearchContext& ctx, const BoundResult* warm_prev,
                      std::optional<double> warm_d,
                      std::optional<double>& resolved_d) {
  const Scenario& sc = ctx.sc;
  const sched::EdfFactors& factors = sc.scheduler.edf_factors();
  const double factor_gap = factors.own_factor - factors.cross_factor;
  constexpr double kDamping[] = {0.5, 0.25, 0.1};
  constexpr int kMaxIters = 60;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  BoundResult prev{kInf, 0.0, 0.0, 0.0, 0.0};
  double d = 0.0;
  bool converged = false;

  // One iteration schedule from the current (d, prev).  `accelerate`
  // enables the secant step on f(d) = g(d) - d; `external_warm` marks
  // the first solve as a SolveState-seeded probe (warm_start_hits).
  // Returns true on convergence; `d` and `prev` carry the last iterate
  // either way (a non-finite `prev` means the deadline guess drove the
  // delta solve unstable -- the caller decides whether that is fatal).
  const auto iterate = [&](double beta, bool accelerate,
                           bool external_warm) {
    double last_d = kNaN;
    double last_f = kNaN;
    for (int iter = 0; iter < kMaxIters; ++iter) {
      ++ctx.stats.edf_iterations;
      const double delta = factor_gap * d / sc.hops;
      prev = solve_for_delta(ctx, delta, &prev, external_warm && iter == 0);
      if (!std::isfinite(prev.delay_ms)) return false;
      const double f = prev.delay_ms - d;
      if (std::abs(f) <= 1e-7 * std::max(1.0, d)) {
        converged = true;
        return true;
      }
      double d_next = d + beta * f;
      if (accelerate && std::isfinite(last_f) && f != last_f) {
        const double d_sec = d - f * (d - last_d) / (f - last_f);
        if (std::isfinite(d_sec) && d_sec > 0.25 * d && d_sec < 4.0 * d) {
          d_next = d_sec;
        }
      }
      last_d = d;
      last_f = f;
      d = d_next;
    }
    return false;
  };

  if (warm_prev != nullptr && warm_d.has_value()) {
    // Warm attempt seeded by the neighbor's fixed point.  A non-finite
    // iterate just falls through to the cold schedule below.
    prev = *warm_prev;
    d = *warm_d;
    iterate(kDamping[0], /*accelerate=*/true, /*external_warm=*/true);
  }

  if (!converged) {
    const BoundResult seed = solve_for_delta(ctx, 0.0, nullptr);
    if (!std::isfinite(seed.delay_ms)) return finish(ctx, seed);
    // Attempt 0 plus the damped restarts of the schedule.  Only attempt
    // 0 accelerates -- the restarts exist for landscapes where
    // aggressive steps misbehave, so they stay purely damped.
    prev = seed;
    d = seed.delay_ms;
    for (std::size_t attempt = 0; attempt < std::size(kDamping); ++attempt) {
      if (attempt > 0) {
        // Retry: restart from the FIFO seed with a tighter damping factor.
        ++ctx.stats.retries;
        prev = seed;
        d = seed.delay_ms;
      }
      if (iterate(kDamping[attempt], /*accelerate=*/attempt == 0,
                  /*external_warm=*/false)) {
        break;
      }
      if (!std::isfinite(prev.delay_ms)) return finish(ctx, prev);
    }
  }
  ctx.stats.edf_converged = converged;
  // Re-solve once at the resolved Delta so the returned tuple (delay,
  // gamma, s, sigma, delta) is self-consistent instead of mixing the
  // damped average with parameters from an earlier iterate.
  BoundResult result = solve_for_delta(ctx, factor_gap * d / sc.hops, &prev);
  if (!converged) {
    result.diagnostics.warn(
        diag::SolveErrorKind::kNoConvergence,
        "EDF fixed point did not converge within " +
            std::to_string(kMaxIters) + " iterations after " +
            std::to_string(ctx.stats.retries) +
            " damped restart(s); the bound uses the last iterate");
  }
  resolved_d = d;
  return finish(ctx, result);
}

}  // namespace

diag::ValidationReport Scenario::validate() const {
  using diag::SolveErrorKind;
  diag::ValidationReport report;
  if (!(capacity > 0.0) || !std::isfinite(capacity)) {
    report.add(SolveErrorKind::kInvalidScenario, "capacity",
               "must be positive and finite (got " + fmt(capacity) + ")");
  }
  if (hops < 1) {
    report.add(SolveErrorKind::kInvalidScenario, "hops",
               "must be >= 1 (got " + std::to_string(hops) + ")");
  }
  if (n_through < 1) {
    report.add(SolveErrorKind::kInvalidScenario, "n_through",
               "need >= 1 through flow (got " + std::to_string(n_through) +
                   ")");
  }
  if (n_cross < 0) {
    report.add(SolveErrorKind::kInvalidScenario, "n_cross",
               "must be >= 0 (got " + std::to_string(n_cross) + ")");
  }
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    report.add(SolveErrorKind::kInvalidScenario, "epsilon",
               "must lie in (0, 1) (got " + fmt(epsilon) + ")");
  }
  // MMOO consistency.  The MmooSource constructor enforces these, so a
  // violation here means the source was corrupted after construction.
  const double mean = source.mean_rate();
  const double peak = source.peak_rate();
  if (!(mean > 0.0) || !std::isfinite(mean) || !(peak >= mean)) {
    report.add(SolveErrorKind::kInvalidScenario, "source",
               "inconsistent MMOO rates (mean " + fmt(mean) + ", peak " +
                   fmt(peak) + ")");
  }
  // EDF deadline factors are validated regardless of the scheduler kind:
  // the defaults are always valid, so a malformed factor is a
  // configuration mistake even when another kind ignores it.
  const sched::EdfFactors& edf = scheduler.edf_factors();
  if (!(edf.own_factor > 0.0) || !std::isfinite(edf.own_factor)) {
    report.add(SolveErrorKind::kInvalidScenario, "edf.own_factor",
               "must be positive and finite (got " + fmt(edf.own_factor) +
                   ")");
  }
  if (!(edf.cross_factor > 0.0) || !std::isfinite(edf.cross_factor)) {
    report.add(SolveErrorKind::kInvalidScenario, "edf.cross_factor",
               "must be positive and finite (got " + fmt(edf.cross_factor) +
                   ")");
  }
  // A fixed-Delta scheduler may use any offset, including +/-inf, but
  // never NaN (the precedence relation would be meaningless).
  if (std::isnan(scheduler.delta())) {
    report.add(SolveErrorKind::kInvalidScenario, "scheduler.delta",
               "fixed Delta offset must not be NaN");
  }
  // Class weights/quanta are validated like the EDF factors: the defaults
  // are always valid, so a malformed entry is a configuration mistake
  // even when a Delta-backed kind ignores them.
  const sched::ClassWeights& weights = scheduler.weights();
  if (weights.size() < 2 || weights.size() > sched::ClassWeights::kMaxClasses) {
    report.add(SolveErrorKind::kInvalidScenario, "scheduler.weights",
               "need 2.." + std::to_string(sched::ClassWeights::kMaxClasses) +
                   " classes (got " + std::to_string(weights.size()) + ")");
  } else {
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (!(weights[i] > 0.0) || !std::isfinite(weights[i])) {
        report.add(SolveErrorKind::kInvalidScenario, "scheduler.weights",
                   "class " + std::to_string(i) +
                       " weight must be positive and finite (got " +
                       fmt(weights[i]) + ")");
        break;
      }
    }
  }
  // Stability: well-formed but overloaded scenarios are reported as
  // kUnstable without making the report invalid.  For Delta-backed kinds
  // the Eq. (32) window needs the *total* load under capacity; for
  // curve-backed kinds only the through class competes against its
  // guaranteed rate R, so a finite bound can exist at total utilization
  // >= 1 (the GPS isolation property).
  if (report.ok()) {
    if (scheduler.is_curve_backed()) {
      const double through_load = n_through * mean;
      const std::optional<sched::RateLatency> rl = scheduler.rate_latency(
          capacity, sched::ClassLoads{through_load, n_cross * mean});
      if (rl.has_value() && through_load >= rl->rate) {
        report.add(SolveErrorKind::kUnstable, "utilization",
                   "through load " + fmt(through_load) +
                       " Mbps meets or exceeds the guaranteed rate " +
                       fmt(rl->rate) + " Mbps; the delay bound is +inf");
      }
    } else if (const double u = utilization(); u >= 1.0) {
      report.add(SolveErrorKind::kUnstable, "utilization",
                 "offered load " + fmt(100.0 * u) +
                     "% of capacity; the delay bound is +inf");
    }
  }
  return report;
}

double max_stable_s(const Scenario& sc) {
  const double n = sc.n_through + sc.n_cross;
  return stable_s_limit(
      n, sc.capacity, sc.source.mean_rate(), sc.source.peak_rate(),
      [&](double s) { return sc.source.effective_bandwidth(s); });
}

namespace detail {

BoundResult solve_scenario(const Scenario& sc, const EngineRequest& req,
                           SolveState* state) {
  // Curve-backed kinds (GPS/DRR/SCED) have no Delta at all: route them to
  // the rate-latency path before the static_delta check (their
  // static_delta() is nullopt, which would otherwise mean "EDF fixed
  // point").  Their 1-D search shares nothing with the Delta engine, so
  // the warm state is cleared rather than poisoned with foreign hints.
  if (!req.delta.has_value() && sc.scheduler.is_curve_backed()) {
    validate_scenario(sc);
    BoundResult result = solve_curve_backed(sc);
    if (state != nullptr) *state = SolveState{};
    return result;
  }
  // Every Delta-backed kind but EDF has a Delta that does not depend on
  // the solve (FIFO 0, BMUX +inf, SP-high -inf, kDelta its offset); an
  // explicit request delta overrides the scheduler entirely.
  std::optional<double> fixed = req.delta;
  if (!fixed.has_value()) fixed = sc.scheduler.static_delta();

  validate_scenario(sc);
  const bool use_warm = req.use_warm && state != nullptr;
  const BoundResult* warm_prev =
      use_warm && state->prev_.has_value() ? &*state->prev_ : nullptr;
  SearchContext ctx(sc, req.method);
  ctx.effort = req.effort;

  BoundResult result;
  std::optional<double> resolved_d;
  if (fixed.has_value()) {
    result = finish(ctx, solve_for_delta(ctx, *fixed, warm_prev,
                                         /*external_warm=*/true));
  } else {
    result = solve_edf(ctx, warm_prev,
                       use_warm ? state->edf_d_ : std::nullopt, resolved_d);
  }
  if (state != nullptr) {
    state->prev_ = std::isfinite(result.delay_ms)
                       ? std::optional<BoundResult>(result)
                       : std::nullopt;
    state->edf_d_ = resolved_d;
  }
  return result;
}

DelayProfile solve_profile_scenario(const Scenario& sc,
                                    std::span<const double> epsilons,
                                    const EngineRequest& req,
                                    SolveState* state) {
  if (epsilons.empty()) {
    throw std::invalid_argument(
        "Solver::solve_profile: need at least one epsilon level");
  }
  for (double eps : epsilons) {
    if (!(eps > 0.0 && eps < 1.0)) {
      throw std::invalid_argument(
          "Solver::solve_profile: every epsilon level must lie in (0, 1) "
          "(got " + fmt(eps) + ")");
    }
  }
  DelayProfile profile;
  profile.epsilons.assign(epsilons.begin(), epsilons.end());
  profile.levels.resize(profile.epsilons.size());

  const auto level_scenario = [&sc](double eps) {
    Scenario level_sc = sc;
    level_sc.epsilon = eps;
    return level_sc;
  };

  if (!req.use_warm) {
    // Pinning contract: every level is an independent full-budget solve,
    // bit-identical to Solver::solve of the same scenario.  The state
    // (when given) is still refreshed level by level -- a cold solve
    // never *consumes* hints, so threading it cannot change the result.
    for (std::size_t i = 0; i < profile.epsilons.size(); ++i) {
      profile.levels[i] =
          solve_scenario(level_scenario(profile.epsilons[i]), req, state);
    }
  } else {
    // Warm descent: visit the levels from the loosest epsilon (smallest
    // bound) to the tightest, threading one warm-start state so each
    // level inherits the previous level's optimum probe and EDF fixed
    // point.  Post-probe levels run at the reduced kLocal budget; a
    // level whose probe misses transparently falls back to the full
    // cold schedule.  A level counts as a chain hit when its warm probe
    // landed.  Ties keep the caller's order.
    std::vector<std::size_t> order(profile.epsilons.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return profile.epsilons[a] > profile.epsilons[b];
                     });
    SolveState local_state;
    SolveState* chain = state != nullptr ? state : &local_state;
    EngineRequest level_req = req;
    level_req.effort = SearchEffort::kLocal;
    bool first = true;
    for (std::size_t idx : order) {
      profile.levels[idx] =
          solve_scenario(level_scenario(profile.epsilons[idx]), level_req,
                         chain);
      const SolveStats& ls = profile.levels[idx].stats;
      if (!first && ls.warm_start_hits > 0) {
        ++profile.stats.profile_chain_hits;
      }
      first = false;
    }
  }

  for (const BoundResult& level : profile.levels) {
    profile.stats += level.stats;
  }
  profile.stats.profile_levels =
      static_cast<std::int64_t>(profile.levels.size());
  return profile;
}

}  // namespace detail

}  // namespace deltanc::e2e
