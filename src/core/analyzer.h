// PathAnalyzer: the one-stop facade of the library.  From a scenario it
// produces (a) the paper's probabilistic end-to-end delay bound
// (Section IV, optimized over its free parameters), (b) the additive
// per-node baseline of Example 3, and (c) a discrete-time simulation of
// the same network running the *actual* scheduling algorithm, so that
// analytic bounds can be checked against empirical delay quantiles.
#pragma once

#include "e2e/additive_baseline.h"
#include "e2e/param_search.h"
#include "sim/tandem.h"

namespace deltanc {

/// Side-by-side analytic and empirical results for one scenario.
struct ValidationReport {
  double empirical_quantile;     ///< simulated delay at level 1 - epsilon_sim
  double empirical_max;          ///< largest simulated delay
  double epsilon_sim;            ///< quantile level used for the simulation
  double bound_at_eps_sim;       ///< analytic bound at epsilon_sim, ms
  std::size_t samples;           ///< number of simulated through chunks
  bool bound_holds;              ///< empirical quantile <= bound_at_eps_sim
};

/// Facade over the analysis (src/e2e) and simulation (src/sim) layers.
class PathAnalyzer {
 public:
  explicit PathAnalyzer(e2e::Scenario scenario);

  [[nodiscard]] const e2e::Scenario& scenario() const noexcept {
    return scenario_;
  }

  /// The paper's end-to-end delay bound (Section IV), optimized over
  /// gamma and the Chernoff parameter; EDF deadlines resolved by fixed
  /// point.
  [[nodiscard]] e2e::BoundResult bound(
      e2e::Method method = e2e::Method::kExactOpt) const;

  /// The node-by-node additive BMUX baseline (Fig. 4's loose curve).
  [[nodiscard]] e2e::BoundResult additive_bound() const;

  /// Simulates the tandem with the scenario's scheduler.  Delays are in
  /// slots (= ms).  EDF deadlines are the resolved analytic ones,
  /// multiples of d_e2e / H: `held_bound` is the scenario's bound when
  /// the caller already holds it (e.g. from bound()); when null, an EDF
  /// scenario solves it here, and every other kind needs none.
  [[nodiscard]] sim::TandemResult simulate(
      std::int64_t slots, std::uint64_t seed = 1,
      const e2e::BoundResult* held_bound = nullptr) const;

  /// Simulates (see simulate(), `held_bound` likewise) and compares the
  /// analytic bound at epsilon_sim against the empirical
  /// (1 - epsilon_sim) delay quantile.  epsilon_sim is chosen so the
  /// quantile is resolvable from the sample count (>= 100 tail samples).
  /// Throws std::invalid_argument, naming the slot and hop counts, when
  /// the simulation records no through sample (too few slots).
  [[nodiscard]] ValidationReport validate(
      std::int64_t slots, std::uint64_t seed = 1,
      const e2e::BoundResult* held_bound = nullptr) const;

 private:
  e2e::Scenario scenario_;

  [[nodiscard]] sim::TandemConfig tandem_config(
      std::int64_t slots, std::uint64_t seed,
      const e2e::BoundResult* held_bound) const;
};

}  // namespace deltanc
