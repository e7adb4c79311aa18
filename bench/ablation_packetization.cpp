// Ablation C: the paper's fluid assumption ("we ignore that packet
// transmissions cannot be interrupted ... reasonable when packet sizes
// are small compared to the transmission rate").  This bench runs the
// tandem simulator with increasingly coarse packet sizes and reports how
// far the empirical through-delay tail drifts from the fluid model.
#include <cstdio>
#include <iostream>

#include "core/table.h"
#include "evsim/network.h"
#include "sim/tandem.h"

int main() {
  using namespace deltanc;
  using namespace deltanc::sim;

  TandemConfig base;
  base.hops = 3;
  base.n_through = 250;
  base.n_cross = 250;
  base.slots = 150000;
  base.seed = 7;

  std::printf("Packetization ablation: through-delay tail vs packet size\n");
  std::printf("(H = 3, U ~ 75%%, C = 100 Mbps = 100 kb/slot)\n\n");

  Table table({"packet [kb]", "p50 [slots]", "p99 [slots]", "p99.9 [slots]",
               "max [slots]"});
  const auto run_with = [&](double packet_kb) {
    TandemConfig c = base;
    c.packet_kb = packet_kb;
    const TandemResult r = run_tandem(c);
    table.add_row(packet_kb == 0.0 ? "fluid" : Table::format(packet_kb, 1),
                  {r.through_delay.quantile(0.50),
                   r.through_delay.quantile(0.99),
                   r.through_delay.quantile(0.999), r.through_delay.max()});
  };
  run_with(0.0);  // fluid reference
  for (double packet : {1.5, 6.0, 12.0, 25.0, 50.0}) run_with(packet);

  table.print(std::cout);
  std::printf(
      "\nEmission granularity alone leaves the slotted (bit-preemptive)\n"
      "tail unchanged.  The real cost of packets appears only with\n"
      "NON-PREEMPTIVE service, measured below with the event-driven\n"
      "simulator under strict priority (the discipline most sensitive to\n"
      "blocking):\n\n");

  Table ev({"packet [kb]", "p50 [ms]", "p99 [ms]", "p99.9 [ms]",
            "max [ms]"});
  for (double packet : {1.5, 6.0, 12.0, 25.0, 50.0}) {
    evsim::EvNetworkConfig c;
    c.hops = 3;
    c.n_through = 250;
    c.n_cross = 250;
    c.slots = 100000;
    c.seed = 7;
    c.packet_kb = packet;
    c.scheduler = sched::SchedulerSpec::sp_high();
    const evsim::EvNetworkResult r = run_event_network(c);
    ev.add_row(Table::format(packet, 1),
               {r.through_delay_ms.quantile(0.50),
                r.through_delay_ms.quantile(0.99),
                r.through_delay_ms.quantile(0.999),
                r.through_delay_ms.max()});
  }
  ev.print(std::cout);
  std::printf(
      "\nThe high-priority through traffic now pays a blocking term that\n"
      "grows with the packet size (a cross packet in service cannot be\n"
      "preempted) -- up to ~H * L/C extra delay.  At the paper's P = 1.5 kb\n"
      "on a 100 Mbps link this is 0.045 ms over 3 hops: negligible, which\n"
      "is precisely the paper's small-packet assumption.\n");
  return 0;
}
