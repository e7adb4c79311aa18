// Monte-Carlo validation of Theorem 1: the statistical service curve
// guarantee
//
//     P( D(t) < A * [S - sigma]_+ (t) )  <=  eps_s(sigma)
//
// is checked pathwise against a slot-level simulation of one node running
// the *actual* scheduling algorithm (FIFO / SP / EDF), with the cross
// traffic's sample-path envelope taken from its effective-bandwidth EBB
// description.  This ties the paper's central theorem directly to an
// executable system rather than only to its own algebra.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sched/delta.h"
#include "sim/mmoo_source.h"
#include "sim/rng.h"
#include "sim/scheduler_queue.h"
#include "traffic/mmoo.h"

namespace deltanc {
namespace {

struct McConfig {
  double capacity = 100.0;
  int n_through = 150;
  int n_cross = 150;
  double theta = 5.0;    // slots
  double delta = 0.0;    // Delta_{0,c} of the scheduler under test
  double s = 0.3;        // Chernoff parameter for the cross envelope
  double gamma = 1.0;    // union-bound slack of the sample-path envelope
  int slots = 60000;
  std::uint64_t seed = 21;
};

/// Runs one node and returns the violation frequency of the Theorem-1
/// guarantee at the given sigma, together with the analytic eps_s(sigma).
std::pair<double, double> violation_frequency(
    const McConfig& cfg, std::unique_ptr<sim::Discipline> discipline,
    double sigma) {
  const auto model = traffic::MmooSource::paper_source();
  sim::Xoshiro256ss rng(cfg.seed);
  sim::MmooAggregateSim through(model, cfg.n_through, rng);
  sim::Xoshiro256ss cross_rng = rng;
  cross_rng.jump();
  sim::MmooAggregateSim cross(model, cfg.n_cross, cross_rng);

  // The Theorem-1 curve for linear cross envelopes:
  //   S(t; theta) = [C t - (rho_c + gamma) (t - theta + Delta(theta))]_+
  //                 for t > theta,
  // where Delta(theta) = min(delta, theta) and the cross envelope rate is
  // rho_c = Nc * eb(s).
  const double rho_c = cfg.n_cross * model.effective_bandwidth(cfg.s);
  const double shift = cfg.theta - std::min(cfg.delta, cfg.theta);
  const auto service = [&](double t) {
    if (t <= cfg.theta) return 0.0;
    const double cross_term =
        std::max(0.0, (rho_c + cfg.gamma) * (t - shift));
    return std::max(0.0, cfg.capacity * t - cross_term);
  };
  // eps_s(sigma) = e^{-s sigma} / (1 - e^{-s gamma})  (M = 1 aggregate).
  const double eps = std::exp(-cfg.s * sigma) /
                     (1.0 - std::exp(-cfg.s * cfg.gamma));

  std::vector<double> a_cum{0.0};  // A(t): arrivals through end of slot t
  double d_cum = 0.0;
  std::vector<sim::Chunk> completed;
  std::uint64_t seq = 0;
  std::int64_t violations = 0;
  std::int64_t checks = 0;
  const int window = 2000;  // convolution lookback (busy periods are short)

  for (int t = 0; t < cfg.slots; ++t) {
    const double x = t;
    const double thr_kb = through.step(rng);
    if (thr_kb > 0.0) {
      discipline->enqueue(sim::Chunk{0, thr_kb, thr_kb, x, x, 0.0, seq++});
    }
    const double cross_kb = cross.step(cross_rng);
    if (cross_kb > 0.0) {
      discipline->enqueue(
          sim::Chunk{1, cross_kb, cross_kb, x, x, 0.0, seq++});
    }
    a_cum.push_back(a_cum.back() + thr_kb);

    completed.clear();
    discipline->serve(cfg.capacity, &completed);
    for (const auto& c : completed) {
      if (c.flow == 0) d_cum += c.total_kb;
    }

    if (t < 1000) continue;  // warmup
    // A * [S - sigma]_+ (t) = min_u A(u) + [S(t - u) - sigma]_+ .
    double conv = a_cum[static_cast<std::size_t>(t) + 1];  // u = t term
    const int u_lo = std::max(0, t - window);
    for (int u = u_lo; u <= t; ++u) {
      const double s_val =
          std::max(0.0, service(static_cast<double>(t - u)) - sigma);
      conv = std::min(conv, a_cum[static_cast<std::size_t>(u) + 1] + s_val);
    }
    ++checks;
    if (d_cum < conv - 1e-6) ++violations;
  }
  return {static_cast<double>(violations) / static_cast<double>(checks),
          eps};
}

TEST(Theorem1MonteCarlo, FifoGuaranteeHolds) {
  McConfig cfg;
  cfg.delta = 0.0;
  for (double sigma : {20.0, 40.0}) {
    const auto [freq, eps] = violation_frequency(
        cfg, sim::make_delta_key({0, 0}, {0.0, 0.0}), sigma);
    EXPECT_LE(freq, eps) << "sigma = " << sigma << " (eps = " << eps << ")";
  }
}

TEST(Theorem1MonteCarlo, BmuxGuaranteeHolds) {
  // Through traffic as the lowest priority: Delta = +inf, so
  // Delta(theta) = theta and the cross envelope is unshifted.
  McConfig cfg;
  cfg.delta = std::numeric_limits<double>::infinity();
  const auto [freq, eps] = violation_frequency(
      cfg, sim::make_delta_key({0, 1}, {0.0, 0.0}), 30.0);
  EXPECT_LE(freq, eps);
}

TEST(Theorem1MonteCarlo, EdfGuaranteeHolds) {
  // EDF with d*_0 = 4, d*_c = 12 slots: Delta = -8.
  McConfig cfg;
  cfg.delta = -8.0;
  cfg.theta = 6.0;
  const auto [freq, eps] = violation_frequency(
      cfg, sim::make_delta_key({0, 0}, {4.0, 12.0}), 25.0);
  EXPECT_LE(freq, eps);
}

TEST(Theorem1MonteCarlo, SpHighGuaranteeHolds) {
  // Through traffic at top priority: cross traffic never precedes
  // (Delta = -inf); the guarantee is the full link, gated at theta.
  McConfig cfg;
  cfg.delta = -std::numeric_limits<double>::infinity();
  const auto [freq, eps] = violation_frequency(
      cfg, sim::make_delta_key({1, 0}, {0.0, 0.0}), 15.0);
  EXPECT_LE(freq, eps);
}

TEST(Theorem1MonteCarlo, ViolationsAppearBeyondTheGuarantee) {
  // Sanity check that the experiment has teeth: an *invalid* "service
  // curve" that pretends the cross traffic does not exist (full link,
  // no gate, negative sigma margin) must be violated often under load.
  McConfig cfg;
  cfg.theta = 0.0;
  cfg.n_cross = 350;
  cfg.n_through = 350;
  const auto model = traffic::MmooSource::paper_source();
  sim::Xoshiro256ss rng(cfg.seed);
  sim::MmooAggregateSim through(model, cfg.n_through, rng);
  sim::Xoshiro256ss cross_rng = rng;
  cross_rng.jump();
  sim::MmooAggregateSim cross(model, cfg.n_cross, cross_rng);
  const auto node = sim::make_delta_key({0, 0}, {0.0, 0.0});
  std::vector<double> a_cum{0.0};
  double d_cum = 0.0;
  std::vector<sim::Chunk> completed;
  std::uint64_t seq = 0;
  std::int64_t violations = 0, checks = 0;
  for (int t = 0; t < 20000; ++t) {
    const double x = t;
    const double thr = through.step(rng);
    if (thr > 0.0) node->enqueue(sim::Chunk{0, thr, thr, x, x, 0.0, seq++});
    const double cr = cross.step(cross_rng);
    if (cr > 0.0) node->enqueue(sim::Chunk{1, cr, cr, x, x, 0.0, seq++});
    a_cum.push_back(a_cum.back() + thr);
    completed.clear();
    node->serve(cfg.capacity, &completed);
    for (const auto& c : completed) {
      if (c.flow == 0) d_cum += c.total_kb;
    }
    if (t < 1000) continue;
    // Fake guarantee: full capacity, ignoring everything else.
    double conv = a_cum[static_cast<std::size_t>(t) + 1];
    for (int u = std::max(0, t - 400); u <= t; ++u) {
      conv = std::min(conv, a_cum[static_cast<std::size_t>(u) + 1] +
                                cfg.capacity * (t - u));
    }
    ++checks;
    if (d_cum < conv - 1e-6) ++violations;
  }
  EXPECT_GT(static_cast<double>(violations) / static_cast<double>(checks),
            0.05);
}

}  // namespace
}  // namespace deltanc
