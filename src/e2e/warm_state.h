// Internal contents of e2e::SolveState (see e2e/solve_state.h for the
// contract).  This header is implementation detail of the solve engine:
// only param_search.cpp and solve_state.cpp include it.
#pragma once

#include "e2e/param_search.h"
#include "e2e/solve_state.h"

namespace deltanc::e2e::detail {

struct WarmState {
  /// Anything usable at all; false until a solve deposits context.
  bool valid = false;

  // Fingerprint of the scenario the hints were produced for.  The
  // stable-s bracket needs the source, capacity and the total flow count
  // to match (stable_s_limit depends on nothing else).  Comparisons are
  // exact (==): a near-miss must recompute, reuse has to be bit-exact.
  double peak = 0.0;
  double p11 = 0.0;
  double p22 = 0.0;
  double capacity = 0.0;
  double n_total = 0.0;

  /// Stable-s bracket of Eq. (32) (the 200-iteration bisection result).
  bool bracket_valid = false;
  double s_lo = 0.0;
  double s_hi = 0.0;
  bool unstable = false;
  bool degenerate = false;

  /// The previous solve's optimum: its s seeds the warm probe that
  /// replaces the coarse Chernoff scan.
  bool prev_valid = false;
  BoundResult prev{};

  /// Resolved EDF fixed point d of the previous solve (seed for the
  /// neighbor's fixed point); only meaningful for EDF scenarios.
  bool edf_valid = false;
  double edf_d = 0.0;

  [[nodiscard]] bool bracket_matches(const Scenario& sc) const {
    return valid && bracket_valid && peak == sc.source.peak_kb() &&
           p11 == sc.source.p11() && p22 == sc.source.p22() &&
           capacity == sc.capacity &&
           n_total == static_cast<double>(sc.n_through + sc.n_cross);
  }
};

}  // namespace deltanc::e2e::detail
