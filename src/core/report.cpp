#include "core/report.h"

#include <cmath>
#include <sstream>

#include "core/table.h"
#include "e2e/solver.h"
#include "sched/scheduler_spec.h"

namespace deltanc {

std::string render_report(const e2e::Scenario& scenario,
                          const ReportOptions& options) {
  std::ostringstream os;
  const PathAnalyzer analyzer(scenario);

  os << "# deltanc path analysis\n\n";
  os << "## Scenario\n\n";
  os << "| parameter | value |\n|---|---|\n";
  os << "| link rate per node | " << Table::format(scenario.capacity, 1)
     << " Mbps |\n";
  os << "| path length | " << scenario.hops << " hops |\n";
  os << "| through flows | " << scenario.n_through << " |\n";
  os << "| cross flows per node | " << scenario.n_cross << " |\n";
  os << "| total utilization | "
     << Table::format(100.0 * scenario.utilization(), 1) << " % |\n";
  os << "| scheduler | " << sched::scheduler_description(scenario.scheduler)
     << " |\n";
  os << "| target violation probability | " << scenario.epsilon << " |\n\n";

  os << "## End-to-end delay bound\n\n";
  const e2e::BoundResult bound = analyzer.bound();
  if (!std::isfinite(bound.delay_ms)) {
    os << "The configuration is **unstable** (offered load reaches the "
          "link capacity); no finite bound exists.\n";
    return os.str();
  }
  os << "P(W > **" << Table::format(bound.delay_ms) << " ms**) <= "
     << scenario.epsilon << "  (optimized: gamma = "
     << Table::format(bound.gamma, 4) << ", s = "
     << Table::format(bound.s, 4) << ", Delta = " << bound.delta << ")\n\n";

  os << "## Scheduler comparison (same scenario)\n\n";
  os << "| scheduler | bound [ms] |\n|---|---|\n";
  for (sched::SchedulerKind s :
       {sched::SchedulerKind::kSpHigh, sched::SchedulerKind::kEdf,
        sched::SchedulerKind::kFifo, sched::SchedulerKind::kBmux}) {
    e2e::Scenario alt = scenario;
    alt.scheduler = s;  // kind re-assignment keeps the EDF factors
    os << "| " << sched::scheduler_description(alt.scheduler) << " | "
       << Table::format(Solver().solve(alt).delay_ms) << " |\n";
  }
  os << "\n## Delay CCDF bound\n\n| epsilon | d(epsilon) [ms] |\n|---|---|\n";
  // One chained profile solve instead of the historical per-epsilon
  // re-solve loop: the levels share the stable-s bracket / optimum probe.
  SolveOptions profile_options;
  profile_options.warm_start = e2e::WarmStart::kWarm;
  const e2e::DelayProfile ccdf =
      Solver(profile_options).solve_profile(scenario, options.ccdf_epsilons);
  for (std::size_t i = 0; i < ccdf.levels.size(); ++i) {
    os << "| " << ccdf.epsilons[i] << " | "
       << Table::format(ccdf.levels[i].delay_ms) << " |\n";
  }

  if (options.simulate_slots > 0) {
    const ValidationReport v =
        analyzer.validate(options.simulate_slots, options.seed, &bound);
    os << "\n## Simulation cross-check\n\n";
    os << "| metric | value |\n|---|---|\n";
    os << "| simulated slots | " << options.simulate_slots << " |\n";
    os << "| through samples | " << v.samples << " |\n";
    os << "| empirical quantile (eps = " << v.epsilon_sim << ") | "
       << Table::format(v.empirical_quantile) << " ms |\n";
    os << "| empirical max | " << Table::format(v.empirical_max)
       << " ms |\n";
    os << "| bound (eps = " << v.epsilon_sim << ") | "
       << Table::format(v.bound_at_eps_sim) << " ms |\n";
    os << "| bound dominates | " << (v.bound_holds ? "yes" : "**NO**")
       << " |\n";
  }
  return os.str();
}

}  // namespace deltanc
