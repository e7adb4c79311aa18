// Tests for the slot simulator's packetized emission (the paper's
// "packet sizes are small" assumption).
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>

#include "sim/tandem.h"

namespace deltanc::sim {
namespace {

TandemConfig base_config() {
  TandemConfig c;
  c.hops = 2;
  c.n_through = 250;
  c.n_cross = 250;
  c.slots = 60000;
  c.seed = 5;
  return c;
}

TEST(Packetization, ConservesTraffic) {
  TandemConfig fluid = base_config();
  TandemConfig pkt = base_config();
  pkt.packet_kb = 1.5;
  const TandemResult rf = run_tandem(fluid);
  const TandemResult rp = run_tandem(pkt);
  // Same offered load (up to the residual fraction of one packet per
  // source), hence near-identical utilization.
  EXPECT_NEAR(rp.mean_utilization, rf.mean_utilization,
              0.02 * rf.mean_utilization);
}

TEST(Packetization, RecordsPerPacketDelays) {
  TandemConfig pkt = base_config();
  pkt.packet_kb = 1.5;
  const TandemResult r = run_tandem(pkt);
  // Many more samples than slots: one per packet, not one per aggregate.
  EXPECT_GT(r.through_delay.count(),
            static_cast<std::size_t>(pkt.slots));
}

TEST(Packetization, SmallPacketsMatchFluidDelays) {
  // The paper ignores packetization, arguing packets are small relative
  // to the link rate.  With 1.5 kb packets on a 100 kb/slot link the
  // per-packet tail delay must track the fluid tail within ~1 slot.
  TandemConfig fluid = base_config();
  TandemConfig pkt = base_config();
  pkt.packet_kb = 1.5;
  const double fluid_q = run_tandem(fluid).through_delay.quantile(0.99);
  const double pkt_q = run_tandem(pkt).through_delay.quantile(0.99);
  EXPECT_NEAR(pkt_q, fluid_q, 2.0);
}

TEST(Packetization, RejectsNegativePacketSize) {
  TandemConfig c = base_config();
  c.packet_kb = -1.0;
  EXPECT_THROW((void)run_tandem(c), std::invalid_argument);
}

}  // namespace
}  // namespace deltanc::sim
