#include "core/analyzer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "e2e/solver.h"
#include "sim/stats.h"

namespace deltanc {

PathAnalyzer::PathAnalyzer(e2e::Scenario scenario)
    : scenario_(std::move(scenario)) {
  if (scenario_.hops < 1 || scenario_.n_through < 1 ||
      scenario_.n_cross < 0 ||
      !(scenario_.epsilon > 0.0 && scenario_.epsilon < 1.0)) {
    throw std::invalid_argument("PathAnalyzer: malformed scenario");
  }
}

e2e::BoundResult PathAnalyzer::bound(e2e::Method method) const {
  SolveOptions options;
  options.method = method;
  return Solver(options).solve(scenario_);
}

e2e::BoundResult PathAnalyzer::additive_bound() const {
  return e2e::best_additive_bmux_bound(scenario_);
}

sim::TandemConfig PathAnalyzer::tandem_config(std::int64_t slots,
                                              std::uint64_t seed) const {
  sim::TandemConfig c;
  c.capacity_kb_per_slot = scenario_.capacity;
  c.hops = scenario_.hops;
  c.source = scenario_.source;
  c.n_through = scenario_.n_through;
  c.n_cross = scenario_.n_cross;
  c.slots = slots;
  c.seed = seed;
  c.scheduler = scenario_.scheduler;
  // EDF deadlines are self-referential (multiples of d_e2e / H); resolve
  // the unit from the analytic bound.  Every other kind ignores the unit.
  if (scenario_.scheduler.needs_fixed_point()) {
    const e2e::BoundResult b = bound();
    if (!std::isfinite(b.delay_ms)) {
      throw std::invalid_argument(
          "PathAnalyzer::simulate: EDF deadlines need a finite bound");
    }
    c.edf_unit = b.delay_ms / scenario_.hops;
  }
  return c;
}

sim::TandemResult PathAnalyzer::simulate(std::int64_t slots,
                                         std::uint64_t seed) const {
  return sim::run_tandem(tandem_config(slots, seed));
}

ValidationReport PathAnalyzer::validate(std::int64_t slots,
                                        std::uint64_t seed) const {
  ValidationReport report{};
  report.bound = bound();

  const sim::TandemResult sim_result = simulate(slots, seed);
  report.samples = sim_result.through_delay.count();
  if (report.samples == 0) {
    throw std::logic_error("PathAnalyzer::validate: no through samples");
  }
  // Pick the deepest quantile still resolvable with >= 100 tail samples,
  // no deeper than the scenario's epsilon (shared rule in sim/stats.h).
  const double eps_sim = sim::deepest_resolvable_epsilon(
      static_cast<std::size_t>(report.samples), 100.0, scenario_.epsilon);
  report.epsilon_sim = eps_sim;
  report.empirical_quantile = sim_result.through_delay.quantile(1.0 - eps_sim);
  report.empirical_max = sim_result.through_delay.max();

  // The analytic bound at the simulation's epsilon level.
  e2e::Scenario at_sim_eps = scenario_;
  at_sim_eps.epsilon = eps_sim;
  report.bound_at_eps_sim = Solver().solve(at_sim_eps).delay_ms;
  report.bound_holds =
      report.empirical_quantile <= report.bound_at_eps_sim + 1e-9;
  return report;
}

}  // namespace deltanc
