#include "core/analyzer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

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

sim::TandemConfig PathAnalyzer::tandem_config(
    std::int64_t slots, std::uint64_t seed,
    const e2e::BoundResult* held_bound) const {
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
  // the unit from the analytic bound, solved only when the caller holds
  // none.  Every other kind ignores the unit.
  if (scenario_.scheduler.needs_fixed_point()) {
    const double d = held_bound ? held_bound->delay_ms : bound().delay_ms;
    if (!std::isfinite(d)) {
      throw std::invalid_argument(
          "PathAnalyzer::simulate: EDF deadlines need a finite bound");
    }
    c.edf_unit = d / scenario_.hops;
  }
  return c;
}

sim::TandemResult PathAnalyzer::simulate(
    std::int64_t slots, std::uint64_t seed,
    const e2e::BoundResult* held_bound) const {
  return sim::run_tandem(tandem_config(slots, seed, held_bound));
}

ValidationReport PathAnalyzer::validate(
    std::int64_t slots, std::uint64_t seed,
    const e2e::BoundResult* held_bound) const {
  ValidationReport report{};
  const sim::TandemConfig config = tandem_config(slots, seed, held_bound);
  const sim::TandemResult sim_result = sim::run_tandem(config);
  report.samples = sim_result.through_delay.count();
  if (report.samples == 0) {
    throw std::invalid_argument(
        "PathAnalyzer::validate: " + std::to_string(slots) +
        " slots on a " + std::to_string(scenario_.hops) +
        "-hop path record no through sample (the first " +
        std::to_string(config.warmup_slots) +
        " slots are warm-up); simulate more slots");
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
