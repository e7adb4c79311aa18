// Fluid-DRR looseness study: the analytic DRR bound models the quantum
// as a fluid latency term -- per hop, exactly q / C above the GPS(1,1)
// bound of the same rate (the leftover curves differ only in latency, so
// the end-to-end convolution separates: d_drr(q) = d_gps + H q / C).
// This bench (a) verifies that separable identity bit-for-bit against
// the solver, (b) runs the *packetized* deficit-round-robin event
// simulation across quantum sizes, and (c) reports how loose the fluid
// model is: the measured round-robin penalty (sim DRR tail minus sim
// SCFQ tail) stays far below the analytic H q / C charge, because a
// real through packet rarely meets a full adversarial round at every
// hop.  Exit code 1 if the identity breaks or any simulated quantile
// exceeds its analytic bound plus the non-preemptive blocking allowance.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/scenario.h"
#include "core/table.h"
#include "e2e/param_search.h"
#include "e2e/solver.h"
#include "evsim/network.h"

int main() {
  using namespace deltanc;
  constexpr double kEps = 1e-3;       // tail level, resolvable from the run
  constexpr double kPacketKb = 1.5;   // the paper's packet size
  constexpr std::int64_t kSlots = 100000;
  std::printf(
      "Fluid-DRR looseness: analytic quantum charge H*q/C vs the measured\n"
      "packetized round-robin penalty (C = 100, N0 = Nc = 150, eps = 1e-3,\n"
      "%lld slots, packet %.1f kb)\n\n",
      static_cast<long long>(kSlots), kPacketKb);

  Table table({"H", "q [kb]", "bound DRR [ms]", "charge Hq/C [ms]",
               "sim DRR [ms]", "sim penalty [ms]", "holds"});
  bool ok = true;

  for (int hops : {2, 5}) {
    const e2e::Scenario base = ScenarioBuilder()
                                   .hops(hops)
                                   .through_flows(150)
                                   .cross_flows(150)
                                   .violation_probability(kEps)
                                   .build();
    e2e::Scenario gps_sc = base;
    gps_sc.scheduler = sched::SchedulerSpec::gps(1.0, 1.0);
    const double gps_bound = deltanc::Solver().solve(gps_sc).delay_ms;

    // Packetized SCFQ baseline: the fair-sharing tail without any
    // round-robin quantum, measured on the same sample path.
    evsim::EvNetworkConfig ev;
    ev.hops = hops;
    ev.n_through = base.n_through;
    ev.n_cross = base.n_cross;
    ev.packet_kb = kPacketKb;
    ev.slots = kSlots;
    ev.seed = 17;
    ev.scheduler = gps_sc.scheduler;
    const double scfq_tail =
        evsim::run_event_network(ev).through_delay_ms.quantile(1.0 - kEps);
    const double allowance = hops * kPacketKb / base.capacity;

    for (double q : {0.5, 1.5, 4.5, 15.0, 45.0}) {
      e2e::Scenario drr_sc = base;
      drr_sc.scheduler = sched::SchedulerSpec::drr(q, q);
      const double drr_bound = deltanc::Solver().solve(drr_sc).delay_ms;
      const double charge = hops * q / base.capacity;

      // (a) The separable identity: the DRR and GPS solves share rate
      // R = C/2, so their bounds differ by exactly the latency charge.
      if (std::abs(drr_bound - (gps_bound + charge)) >
          1e-9 * std::max(1.0, drr_bound)) {
        std::printf("FAIL: d_drr(%g) = %.17g != d_gps + Hq/C = %.17g\n", q,
                    drr_bound, gps_bound + charge);
        ok = false;
      }

      // (b) The packetized simulation under the fluid bound.
      ev.scheduler = drr_sc.scheduler;
      const double drr_tail =
          evsim::run_event_network(ev).through_delay_ms.quantile(1.0 - kEps);
      const bool holds = drr_tail <= drr_bound + allowance;
      ok = ok && holds;

      table.add_row({std::to_string(hops), Table::format(q, 1),
                     Table::format(drr_bound), Table::format(charge, 3),
                     Table::format(drr_tail),
                     Table::format(drr_tail - scfq_tail, 3),
                     holds ? "yes" : "NO"});
    }
    std::printf("H=%d: analytic GPS(1,1) anchor %a ms, sim SCFQ tail %.3f ms\n",
                hops, gps_bound, scfq_tail);
  }

  std::printf("\n");
  table.print(std::cout);
  std::printf(
      "\nThe fluid model charges the full worst-case round H*q/C for every\n"
      "quantum increase; the measured penalty grows far slower (queueing\n"
      "absorbs most rounds), so the DRR bound's looseness is almost\n"
      "entirely the quantum charge itself.  %s\n",
      ok ? "All identities and bounds hold."
         : "IDENTITY OR BOUND VIOLATION DETECTED");
  return ok ? 0 : 1;
}
