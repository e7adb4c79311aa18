// The end-to-end delay bound d(sigma) of Eq. (39):
//
//     d(sigma) = min_{X >= 0}  X + sum_{h=1}^H theta_h(X) .
//
// Each theta_h(X) is piecewise affine in X, so the objective is piecewise
// affine and its global minimum is attained at one of finitely many
// breakpoints -- `optimize_delay` finds it exactly (this also covers the
// non-convex Delta > 0 case the paper points out).  The
// paper's explicit (near-optimal) K-procedure is implemented separately
// in e2e/k_procedure.h; closed forms for BMUX (Eq. 43), FIFO (Eq. 44),
// and SP-high are provided for cross-validation.
#pragma once

#include <cstddef>

#include "e2e/path_params.h"

namespace deltanc::e2e {

/// Exact minimization of Eq. (39), allocation-free for hot paths: all
/// buffers (breakpoint candidates, per-node constants, sweep scratch,
/// the theta vector of the result) live in `ws` and are reused across
/// calls.  The returned reference points into `ws` and is valid until
/// the next call with the same workspace.
///
/// The global minimum sits on one of the 3H+1 breakpoint candidates.
/// Rather than evaluating the objective at every candidate (O(H^2)), an
/// O(H) slope sweep over the candidates in x order locates the minimizing
/// neighbourhood; only candidates whose swept value lies within the
/// sweep's error bound of the minimum are evaluated exactly, in the
/// historical order and arithmetic.  A guard proves that no skipped
/// candidate could have changed the outcome and otherwise falls back to
/// the full enumeration, so delay, x and theta are bit-identical to
/// evaluating every candidate.  (deltanc::Solver::optimize wraps this
/// with method dispatch and an owned workspace.)
const DelayResult& optimize_delay(const PathParams& p, double gamma,
                                  double sigma, SolveWorkspace& ws);

namespace detail {

/// What one breakpoint minimization did (for tests and profiling).
struct BreakpointReport {
  std::size_t exact_evals = 0;  ///< candidates evaluated exactly
  bool fell_back = false;       ///< the guard forced the full enumeration
};

/// Loads the per-node constants of a homogeneous path into ws.nodes.
/// @throws std::invalid_argument when some node violates Eq. (32).
void load_nodes(const PathParams& p, double gamma, SolveWorkspace& ws);

/// Minimizes X + sum_h theta_h(X) over the nodes loaded into `ws` by
/// the sweep + exact-evaluation + guard scheme described at
/// optimize_delay.  `report`, when non-null, receives what it did.
const DelayResult& sweep_minimize(double sigma, SolveWorkspace& ws,
                                  BreakpointReport* report = nullptr);

/// The full enumeration: every candidate evaluated exactly.  This is
/// the guard's fallback and the oracle sweep_minimize must match bit for
/// bit; it is not a selectable path.
const DelayResult& enumerate_minimize(double sigma, SolveWorkspace& ws);

}  // namespace detail

/// Blind multiplexing closed form (Eq. 43): d = sigma / (C - rho_c - H gamma).
/// Requires p.delta = +infinity.
[[nodiscard]] double bmux_delay(const PathParams& p, double gamma,
                                double sigma);

/// FIFO closed form (Eq. 44).  Requires p.delta = 0.
[[nodiscard]] double fifo_delay(const PathParams& p, double gamma,
                                double sigma);

/// SP-high closed form (cross traffic never precedes, Delta = -infinity):
/// d = sigma / (C - (H-1) gamma).
[[nodiscard]] double sp_high_delay(const PathParams& p, double gamma,
                                   double sigma);

}  // namespace deltanc::e2e
