// Simulation validation sweep: for a grid of (H, utilization, scheduler)
// configurations, run the slot-level tandem with the real scheduling
// algorithm and verify the analytic bound dominates the empirical delay
// quantile at the simulation-resolvable epsilon.  Exit code 1 if any
// bound is violated.
#include <cstdio>
#include <iostream>

#include "core/analyzer.h"
#include "core/scenario.h"
#include "core/table.h"
#include "sim/stats.h"

int main() {
  using namespace deltanc;
  std::printf("Bound-vs-simulation validation sweep (C = 100 Mbps, "
              "200k slots per cell)\n\n");

  Table table({"H", "U [%]", "scheduler", "bound [ms]", "sim q [ms]",
               "sim max [ms]", "holds"});
  bool all_hold = true;
  const struct {
    const char* name;
    sched::SchedulerKind sched;
  } cases[] = {{"FIFO", sched::SchedulerKind::kFifo},
               {"BMUX", sched::SchedulerKind::kBmux},
               {"SP-high", sched::SchedulerKind::kSpHigh},
               {"EDF", sched::SchedulerKind::kEdf}};

  for (int hops : {1, 3, 5}) {
    for (double u : {0.45, 0.75}) {
      for (const auto& c : cases) {
        const PathAnalyzer analyzer(ScenarioBuilder()
                                        .hops(hops)
                                        .through_utilization(u / 2.0)
                                        .cross_utilization(u / 2.0)
                                        .scheduler(c.sched)
                                        .build());
        const ValidationReport r = analyzer.validate(200000, 99);
        // Same resolvability rule as validate() picks its epsilon by
        // (sim/stats.h): a cell whose tail would hold fewer than 100
        // samples shows "-" instead of an untrustworthy quantile.
        const bool resolvable = sim::quantile_resolvable(
            r.epsilon_sim, static_cast<std::size_t>(r.samples), 100.0);
        all_hold = all_hold && (!resolvable || r.bound_holds);
        table.add_row({std::to_string(hops), Table::format(100.0 * u, 0),
                       c.name, Table::format(r.bound_at_eps_sim),
                       resolvable ? Table::format(r.empirical_quantile) : "-",
                       Table::format(r.empirical_max),
                       !resolvable ? "-" : (r.bound_holds ? "yes" : "NO")});
      }
    }
  }
  table.print(std::cout);
  std::printf("\n%s\n", all_hold ? "All analytic bounds dominate the "
                                   "simulated quantiles."
                                 : "BOUND VIOLATION DETECTED");
  return all_hold ? 0 : 1;
}
