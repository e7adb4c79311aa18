// Opaque warm-start state for deltanc::Solver and the sweep engine.
//
// A scenario solve builds per-scenario context that a *neighboring*
// solve (the next point of a sweep chain, the next level of a warm
// profile) can reuse instead of rebuilding from scratch: the stable-s
// bracket of Eq. (32) (bit-exact when source, capacity and flow counts
// match), the previous (s, gamma) optimum as a scan-skipping probe, and
// the resolved EDF fixed point as an iteration seed.  SolveState carries
// that context across solves without exposing its layout; the contents
// live in e2e/warm_state.h (internal) and are only touched by the
// engine in param_search.cpp.
//
// Reuse is *hinted*, never trusted: every hint is fingerprinted against
// the scenario it came from, stale hints are recomputed, and a missed
// warm probe falls back to the cold scan -- so a warm solve can differ
// from a cold one only through legitimately different iteration paths
// (bounded by the documented warm-start tolerance; see
// docs/API.md#warm-starts), never through wrong reuse.
#pragma once

#include <memory>

namespace deltanc::e2e {

class SolveState;

namespace detail {
struct WarmState;
/// Internal engine access to the state's contents (creates them on
/// first use).  Not API.
[[nodiscard]] WarmState& warm(SolveState& state);
}  // namespace detail

/// Opaque context carried between solves (see file comment).  Default
/// construction is empty: the first solve through it runs cold and
/// deposits its context.  Move-only; cheap to move.
class SolveState {
 public:
  SolveState();
  SolveState(SolveState&&) noexcept;
  SolveState& operator=(SolveState&&) noexcept;
  SolveState(const SolveState&) = delete;
  SolveState& operator=(const SolveState&) = delete;
  ~SolveState();

  /// True when a previous solve has deposited reusable context.
  [[nodiscard]] bool has_value() const noexcept;

  /// Drops all carried context; the next solve through this state runs
  /// cold.
  void reset() noexcept;

 private:
  friend detail::WarmState& detail::warm(SolveState& state);
  std::unique_ptr<detail::WarmState> impl_;
};

}  // namespace deltanc::e2e
