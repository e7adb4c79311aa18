// The per-node free parameter theta_h(X) of the delay optimization,
// Eq. (38): the smallest theta >= 0 with
//
//   (C - (h-1) gamma)(X + theta) - (rho_c + gamma)[X + Delta(theta)]_+ >= sigma,
//
// where Delta(theta) = min(Delta_{0,c}, theta).  Solved in closed form by
// a case split on the sign of Delta and on which regime the constraint
// binds in (theta_at, the one copy every optimizer evaluates); it handles
// Delta = +/-infinity (BMUX / SP-high) as limiting cases.
#pragma once

#include <algorithm>
#include <limits>
#include <span>

#include "e2e/path_params.h"

namespace deltanc::e2e {

/// theta_h(X) from node h's constants (NodeTerms), at X >= 0 and
/// sigma >= 0.  Unchecked: the optimizers call it per candidate.
[[nodiscard]] inline double theta_at(const NodeTerms& n, double sigma,
                                     double x) {
  if (n.delta > 0.0) {
    // Regime A (theta <= Delta): constraint (ch - rc)(X + theta) >= sigma.
    const double theta_a = sigma / n.slack - x;
    if (theta_a <= 0.0) return 0.0;
    if (theta_a <= n.delta) return theta_a;  // handles Delta = +inf (BMUX)
    // Regime B (theta > Delta): ch (X + theta) - rc (X + Delta) >= sigma.
    return (sigma + n.rc * (x + n.delta)) / n.cap - x;
  }
  // Delta <= 0 (FIFO at 0, EDF-favoured, SP-high at -inf): the bracket
  // [X + Delta]_+ does not depend on theta.
  const double bracket =
      n.delta == -std::numeric_limits<double>::infinity()
          ? 0.0
          : std::max(0.0, x + n.delta);
  return std::max(0.0, (sigma + n.rc * bracket) / n.cap - x);
}

/// Node h's (1-based) constants of a homogeneous path at gamma.
/// @throws std::invalid_argument when C - rho_c - h*gamma > 0 (Eq. 32)
///   fails.
[[nodiscard]] NodeTerms node_terms(const PathParams& p, double gamma, int h);

/// theta_h(X) for node h (1-based) at candidate X >= 0.
/// @throws std::invalid_argument if h is out of 1..H, X < 0, sigma < 0,
///   or the stability condition C - rho_c - h*gamma > 0 fails.
[[nodiscard]] double theta_h(const PathParams& p, double gamma, double sigma,
                             int h, double x);

/// The objective of Eq. (39) at X: f(X) = X + sum_h theta_h(X).
[[nodiscard]] double objective(const PathParams& p, double gamma, double sigma,
                               double x);

/// Verifies that (X, theta_1..theta_H) satisfies every constraint of
/// Eq. (38) (used by tests).
[[nodiscard]] bool feasible(const PathParams& p, double gamma, double sigma,
                            double x, std::span<const double> theta,
                            double tol = 1e-7);

}  // namespace deltanc::e2e
