#include "e2e/heterogeneous.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "e2e/delay_bound.h"
#include "e2e/network_epsilon.h"
#include "e2e/solver.h"
#include "sched/single_node_bound.h"

namespace deltanc::e2e {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

HeteroPath homogeneous_as_hetero(const PathParams& p) {
  HeteroPath hp;
  hp.rho = p.rho;
  hp.alpha = p.alpha;
  hp.m = p.m;
  for (int h = 0; h < p.hops; ++h) {
    hp.nodes.push_back({p.capacity, p.rho_cross, p.m, p.delta});
  }
  return hp;
}

TEST(HeteroPath, Validation) {
  HeteroPath hp;
  EXPECT_THROW(hp.validate(), std::invalid_argument);  // no nodes
  hp.nodes.push_back({100.0, 30.0, 1.0, 0.0});
  hp.rho = 20.0;
  hp.alpha = 0.5;
  hp.m = 1.0;
  EXPECT_NO_THROW(hp.validate());
  hp.alpha = 0.0;
  EXPECT_THROW(hp.validate(), std::invalid_argument);
}

TEST(HeteroPath, GammaLimitIsBottleneckDriven) {
  HeteroPath hp;
  hp.rho = 10.0;
  hp.alpha = 0.5;
  hp.m = 1.0;
  hp.nodes.push_back({100.0, 30.0, 1.0, 0.0});  // slack 60
  hp.nodes.push_back({50.0, 20.0, 1.0, 0.0});   // slack 20 <- bottleneck
  EXPECT_NEAR(hp.gamma_limit(), 20.0 / 3.0, 1e-12);
}

TEST(HeteroDelay, ReducesToHomogeneousClosedForm) {
  // A homogeneous path expressed heterogeneously must reproduce both the
  // Eq. (34) violation bound and the optimized delay.
  for (double delta : {-kInf, -5.0, 0.0, 5.0, kInf}) {
    const PathParams p{100.0, 5, 20.0, 30.0, 0.5, 1.0, delta};
    const HeteroPath hp = homogeneous_as_hetero(p);
    const double gamma = 0.3 * p.gamma_limit();

    const nc::ExpBound homo = delay_violation_bound(p, gamma);
    const nc::ExpBound hetero = hetero_delay_violation_bound(hp, gamma);
    EXPECT_NEAR(hetero.prefactor(), homo.prefactor(),
                1e-9 * homo.prefactor())
        << "delta = " << delta;
    EXPECT_NEAR(hetero.decay(), homo.decay(), 1e-12);

    const double sigma = sigma_for_epsilon(p, gamma, 1e-9);
    EXPECT_NEAR(hetero_optimize_delay(hp, gamma, sigma).delay,
                deltanc::Solver().optimize(p, gamma, sigma).delay, 1e-9)
        << "delta = " << delta;
  }
}

TEST(HeteroDelay, BottleneckDominates) {
  // Shrinking one node's capacity can only increase the bound.
  HeteroPath hp;
  hp.rho = 15.0;
  hp.alpha = 0.05;
  hp.m = 1.0;
  for (int h = 0; h < 4; ++h) hp.nodes.push_back({100.0, 35.0, 1.0, 0.0});
  const double base = hetero_best_delay_bound(hp, 1e-9);
  hp.nodes[2].capacity = 70.0;
  const double squeezed = hetero_best_delay_bound(hp, 1e-9);
  EXPECT_GT(squeezed, base);
  hp.nodes[2].capacity = 51.0;  // barely above rho + rho_c
  const double tight = hetero_best_delay_bound(hp, 1e-9);
  EXPECT_GT(tight, squeezed * 1.2);
}

TEST(HeteroDelay, UnstableNodeGivesInfiniteBound) {
  HeteroPath hp;
  hp.rho = 15.0;
  hp.alpha = 0.05;
  hp.m = 1.0;
  hp.nodes.push_back({100.0, 35.0, 1.0, 0.0});
  hp.nodes.push_back({45.0, 35.0, 1.0, 0.0});  // 15 + 35 > 45
  EXPECT_EQ(hetero_best_delay_bound(hp, 1e-9), kInf);
}

TEST(HeteroDelay, MixedSchedulersAlongThePath) {
  // A path where only the bottleneck runs EDF: upgrading that single node
  // from FIFO must reduce the end-to-end bound noticeably.
  HeteroPath hp;
  hp.rho = 15.0;
  hp.alpha = 0.05;
  hp.m = 1.0;
  for (int h = 0; h < 4; ++h) hp.nodes.push_back({100.0, 55.0, 1.0, 0.0});
  const double all_fifo = hetero_best_delay_bound(hp, 1e-9);
  hp.nodes[1].delta = -50.0;  // EDF favouring the through flow there
  const double edf_at_bottleneck = hetero_best_delay_bound(hp, 1e-9);
  EXPECT_LT(edf_at_bottleneck, all_fifo);
  // And penalizing it there must do the opposite.
  hp.nodes[1].delta = kInf;
  EXPECT_GE(hetero_best_delay_bound(hp, 1e-9), all_fifo - 1e-9);
}

TEST(HeteroDelay, CurveBackedSpecsAreRejectedWithAPointer) {
  // gps/drr/sced carry no per-node Delta term; the heterogeneous path
  // must refuse them and name the function that does lower them,
  // rather than produce a bogus Delta.
  for (const sched::SchedulerSpec& spec :
       {sched::SchedulerSpec::gps(1.0, 1.0), sched::SchedulerSpec::drr(2.0, 1.0),
        sched::SchedulerSpec::sced()}) {
    try {
      (void)node_params_for(spec, 100.0, 50.0, 1.0);
      FAIL() << "accepted curve-backed spec " << sched::to_string(spec);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("SchedulerSpec::rate_latency"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(HeteroDelay, PerNodeDeltaMonotonicity) {
  HeteroPath hp;
  hp.rho = 15.0;
  hp.alpha = 0.05;
  hp.m = 1.0;
  for (int h = 0; h < 3; ++h) hp.nodes.push_back({100.0, 40.0, 1.0, 0.0});
  double prev = 0.0;
  for (double delta : {-kInf, -20.0, 0.0, 20.0, kInf}) {
    for (auto& n : hp.nodes) n.delta = delta;
    const double d = hetero_best_delay_bound(hp, 1e-9);
    EXPECT_GE(d, prev - 1e-6) << "delta = " << delta;
    prev = d;
  }
}

TEST(HeteroDelay, SingleHopMatchesSingleNodeMachinery) {
  // A 1-node heterogeneous path must agree with the direct Section-III-B
  // single-node analysis at the same sigma.
  const double gamma = 0.5, alpha = 0.5, sigma = 60.0;
  for (double delta : {-10.0, 0.0, 4.0, kInf}) {
    HeteroPath hp;
    hp.rho = 20.0;
    hp.alpha = alpha;
    hp.m = 1.0;
    hp.nodes.push_back({100.0, 30.0, 1.0, delta});
    const double hetero = hetero_optimize_delay(hp, gamma, sigma).delay;

    const std::vector<traffic::StatEnvelope> env{
        traffic::EbbTraffic(1.0, 20.0, alpha).sample_path_envelope(gamma),
        traffic::EbbTraffic(1.0, 30.0, alpha).sample_path_envelope(gamma)};
    const double back = std::isfinite(delta) ? -delta : -kInf;
    const sched::DeltaMatrix dm({{0.0, delta}, {back, 0.0}});
    const double node =
        sched::single_node_delay_for_sigma(100.0, dm, env, 0, sigma);
    EXPECT_NEAR(hetero, node, 1e-5 * (1.0 + node)) << "delta = " << delta;
  }
}

TEST(HeteroDelay, ThetaSolverValidation) {
  HeteroPath hp;
  hp.rho = 15.0;
  hp.alpha = 0.05;
  hp.m = 1.0;
  hp.nodes.push_back({100.0, 40.0, 1.0, 0.0});
  EXPECT_THROW((void)hetero_theta_h(hp, 0.5, 10.0, 0, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)hetero_theta_h(hp, 0.5, 10.0, 2, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)hetero_theta_h(hp, 0.5, 10.0, 1, -1.0),
               std::invalid_argument);
  EXPECT_THROW((void)hetero_sigma_for_epsilon(hp, 0.5, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace deltanc::e2e
