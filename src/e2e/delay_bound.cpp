#include "e2e/delay_bound.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "e2e/theta_solver.h"

namespace deltanc::e2e {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Tie tolerance of the candidate loop: ties within it break toward the
// larger X.
constexpr double kTieTol = 1e-12;

// Safety factor on the sweep's rounding-error estimate (see
// sweep_minimize).  Larger only widens the exactly evaluated window.
constexpr double kErrSafety = 16.0;

/// The exact objective X + sum_h theta_h(X), summed in node order.
double objective_at(const std::vector<NodeTerms>& nodes, double sigma,
                    double x) {
  double f = x;
  for (const NodeTerms& n : nodes) f += theta_at(n, sigma, x);
  return f;
}

/// One step of the candidate loop.  Ties are broken toward larger X: the
/// objective has flat stretches (e.g. BMUX), and the all-theta-zero
/// corner is the canonical optimum the paper reports (Eq. 43).
bool offer(double x, double f, double& best_x, double& best_f) {
  if (f < best_f - kTieTol || (f < best_f + kTieTol && x > best_x)) {
    best_f = std::min(best_f, f);
    best_x = x;
    return true;
  }
  return false;
}

const DelayResult& finish(double sigma, SolveWorkspace& ws, double best_x,
                          double best_f) {
  DelayResult& result = ws.result;
  result.delay = best_f;
  result.x = best_x;
  result.theta.resize(ws.nodes.size());
  for (std::size_t h0 = 0; h0 < ws.nodes.size(); ++h0) {
    result.theta[h0] = theta_at(ws.nodes[h0], sigma, best_x);
  }
  return result;
}

/// What build_candidates learned about the candidates besides the list.
struct Breakpoints {
  double f0 = 0.0;          ///< the objective at 0 from the candidates
  double slope0 = 1.0;      ///< objective slope at 0+ (the X term and
                            ///< every kink at or left of 0)
  double xabs = 0.0;        ///< largest |candidate|
  double slack_min = kInf;  ///< smallest per-node cap - rc
  double span_max = 0.0;    ///< largest per-node cap + rc
  double offset_max = 0.0;  ///< largest sigma + rc |Delta| (finite Delta)
  std::size_t count[3] = {0, 0, 0};  ///< positive candidates per family
  bool sorted[3] = {true, true, true};
  bool finite = true;  ///< f0 and every candidate finite
};

/// Breakpoints of X -> theta_h(X): regime switches and zeros of each
/// theta_h, in the historical order (0, then node by node).  Between
/// consecutive candidates the objective is affine, so the global optimum
/// sits on a candidate.  Positive candidates also go to ws.families (slot
/// k of each node is family k, closed by a +inf sentinel) with the change
/// of the objective's slope there; the slope changes of the others fold
/// into the slope at 0+.  theta_h(0) comes from the same quotients
/// (exactly for Delta <= 0, to rounding otherwise), so the objective at 0
/// costs no extra division.
Breakpoints build_candidates(double sigma, SolveWorkspace& ws) {
  const std::size_t hops = ws.nodes.size();
  std::size_t n = 1;
  for (const NodeTerms& node : ws.nodes) n += std::isfinite(node.delta) ? 3 : 1;
  ws.candidates.resize(n);
  ws.families.resize(3 * (hops + 1));
  double* cand = ws.candidates.data();
  SweepStep* fam = ws.families.data();
  cand[0] = 0.0;
  Breakpoints b;
  b.offset_max = sigma;
  std::uint32_t i = 1;
  const auto put = [&](std::size_t k, double x, double dslope) {
    cand[i] = x;
    b.xabs = std::max(b.xabs, std::abs(x));
    if (x > 0.0) {
      SweepStep* f = fam + k * (hops + 1);
      const std::size_t c = b.count[k]++;
      if (c > 0 && x < f[c - 1].x) b.sorted[k] = false;
      f[c] = SweepStep{x, dslope, i};
    } else {
      b.slope0 += dslope;
    }
    ++i;
  };
  for (const NodeTerms& node : ws.nodes) {
    const double ch = node.cap;
    const double rc = node.rc;
    const double delta = node.delta;
    const double slack = ch - rc;
    b.slack_min = std::min(b.slack_min, slack);
    b.span_max = std::max(b.span_max, ch + rc);
    if (delta > 0.0) {
      const double zero = sigma / slack;
      put(0, zero, 1.0);  // theta_a = 0
      if (std::isfinite(delta)) {
        // Slope rc/ch - 1 on theta_b, -1 on theta_a, 0 past its zero;
        // theta_b's own zero is never reached (theta_a takes over first).
        const double r = rc / ch;
        const double theta_b_zero = (sigma + rc * delta) / slack;
        put(1, zero - delta, -r);       // theta_a = Delta
        put(2, theta_b_zero, 0.0);      // theta_b = 0
        b.slope0 += r - 1.0;
        b.offset_max = std::max(b.offset_max, sigma + rc * delta);
        // theta_b(0) = (sigma + rc Delta) / ch = theta_b_zero (1 - r).
        b.f0 += zero > delta ? theta_b_zero * (1.0 - r) : zero;
      } else {
        b.slope0 -= 1.0;
        b.f0 += zero;
      }
      continue;
    }
    const double empty = sigma / ch;
    b.slope0 -= 1.0;
    b.f0 += empty;  // theta_h(0) = sigma / ch when Delta <= 0
    if (!std::isfinite(delta)) {
      put(0, empty, 1.0);  // bracket empty
      continue;
    }
    const double zero = (sigma + rc * delta) / slack;
    b.offset_max = std::max(b.offset_max, sigma - rc * delta);
    if (empty <= -delta) {
      // theta reaches 0 before the bracket opens.
      put(0, empty, 1.0);  // bracket empty
      put(1, -delta, 0.0);
      put(2, zero, 0.0);
    } else {
      const double r = rc / ch;
      put(0, empty, 0.0);
      put(1, -delta, r);      // bracket kink
      put(2, zero, 1.0 - r);  // theta = 0
    }
  }
  for (std::size_t k = 0; k < 3; ++k) {
    SweepStep* f = fam + k * (hops + 1);
    f[b.count[k]] = SweepStep{kInf, 0.0, 0};
  }
  b.finite = std::isfinite(b.f0) && std::isfinite(b.xabs);
  return b;
}

/// The historical candidate loop over the built candidates.
const DelayResult& enumerate_built(double sigma, SolveWorkspace& ws) {
  double best_x = 0.0;
  double best_f = kInf;
  for (const double x : ws.candidates) {
    if (!(x >= 0.0)) continue;
    offer(x, objective_at(ws.nodes, sigma, x), best_x, best_f);
  }
  return finish(sigma, ws, best_x, best_f);
}

std::size_t count_valid(const std::vector<double>& cand) {
  return static_cast<std::size_t>(std::count_if(
      cand.begin(), cand.end(), [](double x) { return x >= 0.0; }));
}

}  // namespace

namespace detail {

void load_nodes(const PathParams& p, double gamma, SolveWorkspace& ws) {
  // Per-node constants of theta_h, computed once instead of inside every
  // objective evaluation.
  ws.nodes.resize(static_cast<std::size_t>(p.hops));
  for (int h = 1; h <= p.hops; ++h) {
    ws.nodes[static_cast<std::size_t>(h - 1)] = node_terms(p, gamma, h);
  }
}

const DelayResult& enumerate_minimize(double sigma, SolveWorkspace& ws) {
  build_candidates(sigma, ws);
  return enumerate_built(sigma, ws);
}

// Locate, evaluate, guard.
//
// Locate: F(X) = X + sum_h theta_h(X) is piecewise affine with its kinks
// on the candidates, so F(0), the slope at 0+ and a walk over the
// positive candidates in X order give F at every candidate in O(H).
// Each candidate family (slot k of every node) is monotone in h on a
// homogeneous path, so the walk merges the three families as it goes; a
// family that is not monotone (heterogeneous paths) is sorted first.
//
// Evaluate: candidates whose swept value lies within a window of the
// swept minimum are evaluated exactly, in the historical order, through
// the historical tie rule.
//
// Guard: `err` bounds |swept - exact| at every candidate: rounding in
// the walk and in the exact evaluation, and kink positions that differ
// by a few ulps between the candidate formulas and theta_at's regime
// tests (slack can be small next to C and rho_c, hence the
// (cap + rc) / slack factor).  If every skipped candidate's exact value
// provably exceeds the largest exactly evaluated value by more than the
// tie tolerance, no skipped candidate can change the loop's outcome:
// before the first evaluated candidate it is replaced unconditionally,
// after it it never qualifies.  Otherwise the full enumeration runs.
const DelayResult& sweep_minimize(double sigma, SolveWorkspace& ws,
                                  BreakpointReport* report) {
  BreakpointReport local;
  BreakpointReport& rep = report != nullptr ? *report : local;
  rep = BreakpointReport{};
  const Breakpoints b = build_candidates(sigma, ws);
  const std::vector<double>& cand = ws.candidates;
  const auto fall_back = [&]() -> const DelayResult& {
    rep.fell_back = true;
    rep.exact_evals = count_valid(cand);
    return enumerate_built(sigma, ws);
  };
  if (!b.finite) return fall_back();

  const std::size_t hops = ws.nodes.size();
  SweepStep* const f0s = ws.families.data();
  SweepStep* const f1s = f0s + (hops + 1);
  SweepStep* const f2s = f1s + (hops + 1);
  for (std::size_t k = 0; k < 3; ++k) {
    if (b.sorted[k]) continue;
    SweepStep* const first = f0s + k * (hops + 1);
    std::sort(first, first + b.count[k],
              [](const SweepStep& l, const SweepStep& r) { return l.x < r.x; });
  }

  // The walk: a three-way merge of the families (their +inf sentinels
  // stop exhausted ones; selection is branch-free since the families
  // interleave unpredictably), integrating the slope as it goes.
  const double f0 = b.f0;
  ws.approx.resize(cand.size());
  double* const approx = ws.approx.data();
  for (std::size_t i = 0; i < cand.size(); ++i) {
    if (!(cand[i] > 0.0)) approx[i] = f0;
  }
  const SweepStep* p0 = f0s;
  const SweepStep* p1 = f1s;
  const SweepStep* p2 = f2s;
  const std::size_t steps = b.count[0] + b.count[1] + b.count[2];
  double fx = f0;
  double fmin = f0;
  double slope = b.slope0;
  double xprev = 0.0;
  for (std::size_t left = steps; left > 0; --left) {
    const bool take1 = p1->x < p0->x;
    const SweepStep* m = take1 ? p1 : p0;
    const bool take2 = p2->x < m->x;
    m = take2 ? p2 : m;
    p0 += (take1 || take2) ? 0 : 1;
    p1 += (take1 && !take2) ? 1 : 0;
    p2 += take2 ? 1 : 0;
    fx += slope * (m->x - xprev);
    approx[m->index] = fx;
    fmin = std::min(fmin, fx);
    slope += m->dslope;
    xprev = m->x;
  }

  const double n_hops = static_cast<double>(hops);
  const double kink_err = n_hops * b.span_max / b.slack_min *
                          (b.offset_max / b.slack_min + b.xabs);
  const double err =
      kErrSafety * std::numeric_limits<double>::epsilon() * (n_hops + 2.0) *
      ((static_cast<double>(steps) + n_hops + 2.0) * (f0 + b.xabs) +
       kink_err);

  const double cut = fmin + (4.0 * err + 2.0 * kTieTol);
  // Exact evaluation keeps the thetas of the running best in
  // result.theta (theta_h at best_x, bit for bit), so no final pass.
  DelayResult& result = ws.result;
  result.theta.resize(hops);
  ws.theta.resize(hops);
  double best_x = 0.0;
  double best_f = kInf;
  double evaluated_max = -kInf;
  double skipped_min = kInf;
  for (std::size_t i = 0; i < cand.size(); ++i) {
    const double x = cand[i];
    if (!(x >= 0.0)) continue;
    if (approx[i] <= cut) {
      double f = x;
      for (std::size_t h0 = 0; h0 < hops; ++h0) {
        ws.theta[h0] = theta_at(ws.nodes[h0], sigma, x);
        f += ws.theta[h0];
      }
      evaluated_max = std::max(evaluated_max, f);
      if (offer(x, f, best_x, best_f)) result.theta.swap(ws.theta);
      ++rep.exact_evals;
    } else {
      skipped_min = std::min(skipped_min, approx[i]);
    }
  }
  if (!(skipped_min - err > evaluated_max + kTieTol)) return fall_back();
  result.delay = best_f;
  result.x = best_x;
  return result;
}

}  // namespace detail

const DelayResult& optimize_delay(const PathParams& p, double gamma,
                                  double sigma, SolveWorkspace& ws) {
  p.validate();
  if (!(gamma > 0.0) || !(gamma < p.gamma_limit())) {
    throw std::invalid_argument(
        "optimize_delay: gamma must satisfy Eq. (32): 0 < (H+1) gamma < "
        "C - rho_c - rho");
  }
  if (!(sigma >= 0.0)) {
    throw std::invalid_argument("optimize_delay: sigma must be >= 0");
  }
  detail::load_nodes(p, gamma, ws);
  return detail::sweep_minimize(sigma, ws);
}

double bmux_delay(const PathParams& p, double gamma, double sigma) {
  p.validate();
  if (p.delta != kInf) {
    throw std::invalid_argument("bmux_delay: requires Delta = +infinity");
  }
  const double slack = p.capacity - p.rho_cross - p.hops * gamma;
  if (!(slack > 0.0)) {
    throw std::invalid_argument("bmux_delay: unstable (Eq. 32 violated)");
  }
  return sigma / slack;
}

double fifo_delay(const PathParams& p, double gamma, double sigma) {
  p.validate();
  if (p.delta != 0.0) {
    throw std::invalid_argument("fifo_delay: requires Delta = 0");
  }
  // Eq. (40): smallest K with sum_{h>K} (C - rho_c - h gamma)/(C - (h-1) gamma) < 1.
  int k = p.hops;
  double tail = 0.0;
  for (int h = p.hops; h >= 1; --h) {
    const double term = (p.capacity - p.rho_cross - h * gamma) /
                        (p.capacity - (h - 1) * gamma);
    if (tail + term >= 1.0) break;
    tail += term;
    k = h - 1;
  }
  if (k == 0) {
    // Eq. (41) sets X = 0 for K = 0; then theta_h = sigma / (C - (h-1) gamma).
    double d = 0.0;
    for (int h = 1; h <= p.hops; ++h) {
      d += sigma / (p.capacity - (h - 1) * gamma);
    }
    return d;
  }
  const double slack_k = p.capacity - p.rho_cross - k * gamma;
  if (!(slack_k > 0.0)) {
    throw std::invalid_argument("fifo_delay: unstable configuration");
  }
  // Eq. (44).
  double factor = 1.0;
  for (int h = k + 1; h <= p.hops; ++h) {
    factor += (h - k) * gamma / (p.capacity - (h - 1) * gamma);
  }
  return sigma / slack_k * factor;
}

double sp_high_delay(const PathParams& p, double gamma, double sigma) {
  p.validate();
  if (p.delta != -kInf) {
    throw std::invalid_argument("sp_high_delay: requires Delta = -infinity");
  }
  const double slack = p.capacity - (p.hops - 1) * gamma;
  if (!(slack > 0.0)) {
    throw std::invalid_argument("sp_high_delay: unstable configuration");
  }
  return sigma / slack;
}

}  // namespace deltanc::e2e
