// Warm-start state for deltanc::Solver and the sweep engine.
//
// A scenario solve leaves two hints that a *neighboring* solve (the
// next point of a sweep chain, the next level of a warm profile) can
// start from instead of searching from scratch: the previous finite
// (s, gamma) optimum, whose s replaces the coarse Chernoff scan with one
// probe, and the resolved EDF fixed point, which seeds the neighbor's
// iteration.  SolveState carries them by value between solves; only the
// engine in param_search.cpp reads or writes them.
//
// Hints seed the search, they are never trusted: the probe is clamped
// into the neighbor's own stability window, a probe that misses falls
// back to the cold scan, and an EDF attempt from a seed that does not
// converge falls back to the cold schedule.  So a warm solve can differ
// from a cold one only through a different iteration path (bounded by
// the documented warm-start tolerance; see docs/API.md#warm-starts).
#pragma once

#include <optional>

#include "e2e/param_search.h"

namespace deltanc::e2e {

/// Context carried between solves (see file comment).  Default
/// construction is empty: the first solve through it runs cold and
/// leaves its hints.  Move-only.
class SolveState {
 public:
  SolveState() = default;
  SolveState(SolveState&&) noexcept = default;
  SolveState& operator=(SolveState&&) noexcept = default;
  SolveState(const SolveState&) = delete;
  SolveState& operator=(const SolveState&) = delete;

 private:
  friend BoundResult detail::solve_scenario(const Scenario& sc,
                                            const detail::EngineRequest& req,
                                            SolveState* state);
  /// The previous solve's optimum, when it was finite.
  std::optional<BoundResult> prev_;
  /// The previous solve's resolved EDF fixed point d.
  std::optional<double> edf_d_;
};

}  // namespace deltanc::e2e
