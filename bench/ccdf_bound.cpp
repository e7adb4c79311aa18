// Delay-CCDF comparison: the analytic bound d(eps) as a function of the
// violation probability, next to the empirical CCDF of a long simulation
// of the same tandem.  The analytic curve must lie right of (above) the
// empirical one at every level -- and the horizontal gap visualizes how
// much of the bound is union-bound slack vs. genuine tail risk.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/analyzer.h"
#include "core/scenario.h"
#include "core/table.h"
#include "e2e/solver.h"
#include "sim/stats.h"

int main() {
  using namespace deltanc;

  const e2e::Scenario scenario = ScenarioBuilder()
                                     .hops(3)
                                     .through_flows(250)
                                     .cross_flows(250)
                                     .scheduler(sched::SchedulerKind::kFifo)
                                     .build();
  std::printf("Delay CCDF: analytic bound vs simulated tail "
              "(FIFO, H = 3, U ~ 75%%)\n\n");

  constexpr std::int64_t kSlots = 400000;
  const PathAnalyzer analyzer(scenario);
  const sim::TandemResult sim_result = analyzer.simulate(kSlots, 123);

  const std::vector<double> epsilons{1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9};
  // One chained profile solve across the whole epsilon grid (each level
  // probes from the previous level's optimum).
  SolveOptions options;
  options.warm_start = e2e::WarmStart::kWarm;
  const e2e::DelayProfile profile =
      Solver(options).solve_profile(scenario, epsilons);

  Table table({"epsilon", "analytic d(eps) [ms]", "simulated q [ms]",
               "holds"});
  bool all_hold = true;
  for (std::size_t i = 0; i < profile.levels.size(); ++i) {
    const double eps = profile.epsilons[i];
    const double bound = profile.levels[i].delay_ms;
    std::string sim_cell = "-";
    bool holds = true;
    if (sim::quantile_resolvable(eps, sim_result.through_delay.count())) {
      const double q = sim_result.through_delay.quantile(1.0 - eps);
      holds = q <= bound;
      sim_cell = Table::format(q);
    }
    all_hold = all_hold && holds;
    table.add_row({Table::format(eps, 10), Table::format(bound),
                   sim_cell, holds ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::printf("\n(simulated cells appear only where the tail is resolvable "
              "from %zu samples)\n%s\n",
              sim_result.through_delay.count(),
              all_hold ? "All resolvable levels dominated by the bound."
                       : "BOUND VIOLATION DETECTED");
  return all_hold ? 0 : 1;
}
