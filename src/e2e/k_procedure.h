// The paper's explicit solution procedure for the optimization problem
// Eq. (38) (Section IV, Eqs. (40)-(42)).
//
// The minimum of X + sum_h theta_h(X) is located by identifying the
// index K at which d/dX changes sign: K is the smallest index with
//
//   sum_{h>K} (C - rho_c - h gamma) / (C - (h-1) gamma)  <  1        (40)
//
// and X is then chosen as
//   Delta >= 0:  X = sigma / (C - rho_c - K gamma)            (41)  (X=0 if K=0)
//   Delta <= 0:  X = max( sigma/(C-(K-1)gamma),
//                         (sigma + (rho_c+gamma) Delta)/(C - rho_c - K gamma) )
//                                                             (42)  (X=-Delta if K=0)
// For Delta >= 0 the paper additionally requires theta_h(X) > Delta for
// all h > K.  The paper notes these choices are near-optimal rather than
// optimal; bench/ablation_k_procedure quantifies the gap against the
// exact breakpoint enumeration of e2e/delay_bound.h.
#pragma once

#include "e2e/path_params.h"

namespace deltanc::e2e {

/// Runs the paper's K-procedure and returns the resulting (valid but
/// possibly slightly suboptimal) delay bound with its X and thetas.
/// Allocation-free (see optimize_delay's workspace contract): the
/// result's theta buffer lives in `ws` and is reused across calls.
/// (deltanc::Solver::optimize wraps this with method dispatch and an
/// owned workspace; the old workspace-less shim was removed in PR 9.)
const DelayResult& k_procedure_delay(const PathParams& p, double gamma,
                                     double sigma, SolveWorkspace& ws);

/// The K index selected by Eq. (40) (plus the theta > Delta side
/// condition when Delta >= 0); exposed for tests and ablations.
/// @throws std::invalid_argument when gamma violates Eq. (32) or
///   sigma < 0 (k_procedure_delay too).
[[nodiscard]] int k_procedure_index(const PathParams& p, double gamma,
                                    double sigma);

}  // namespace deltanc::e2e
