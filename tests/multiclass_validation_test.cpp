// Multi-class validation: three traffic classes share one link under EDF
// / SP; the per-class probabilistic bounds of sched/single_node_bound.h
// must dominate the per-class empirical delay quantiles of a simulation
// running the actual discipline.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "sched/delta.h"
#include "sched/single_node_bound.h"
#include "sim/mmoo_source.h"
#include "sim/scheduler_queue.h"
#include "sim/stats.h"
#include "traffic/mmoo.h"

namespace deltanc {
namespace {

constexpr double kCapacity = 100.0;
constexpr int kFlows[3] = {150, 200, 120};

std::vector<traffic::StatEnvelope> analytic_envelopes(double s,
                                                      double gamma) {
  const auto model = traffic::MmooSource::paper_source();
  std::vector<traffic::StatEnvelope> env;
  for (int n : kFlows) {
    env.push_back(
        traffic::EbbTraffic(1.0, n * model.effective_bandwidth(s), s)
            .sample_path_envelope(gamma));
  }
  return env;
}

/// Simulates the three-class node and returns per-class delay recorders.
std::array<sim::DelayRecorder, 3> simulate(
    std::unique_ptr<sim::Discipline> discipline, int slots,
    std::uint64_t seed) {
  const auto model = traffic::MmooSource::paper_source();
  sim::Xoshiro256ss rng(seed);
  std::vector<sim::Xoshiro256ss> rngs;
  std::vector<sim::MmooAggregateSim> sources;
  rngs.reserve(3);
  sources.reserve(3);
  for (int f = 0; f < 3; ++f) {
    rng.jump();
    rngs.push_back(rng);
    sources.emplace_back(model, kFlows[f], rngs.back());
  }
  std::array<sim::DelayRecorder, 3> delays;
  std::vector<sim::Chunk> done;
  std::uint64_t seq = 0;
  for (int t = 0; t < slots; ++t) {
    const double x = t;
    for (int f = 0; f < 3; ++f) {
      const double kb = sources[f].step(rngs[f]);
      if (kb > 0.0) {
        discipline->enqueue(sim::Chunk{f, kb, kb, x, x, 0.0, seq++});
      }
    }
    done.clear();
    discipline->serve(kCapacity, &done);
    for (const auto& c : done) {
      if (c.origin > 1000) {
        delays[static_cast<std::size_t>(c.flow)].add(
            static_cast<double>(t + 1) - c.origin);
      }
    }
  }
  return delays;
}

TEST(MultiClassValidation, EdfBoundsDominatePerClassQuantiles) {
  // EDF deadlines (slots): class 0 tight, class 1 medium, class 2 loose.
  const std::vector<double> deadlines{5.0, 25.0, 120.0};
  const sched::DeltaMatrix dm = sched::DeltaMatrix::edf(deadlines);
  const double s = 0.01, gamma = 0.2, eps = 1e-3;
  const auto env = analytic_envelopes(s, gamma);

  const auto delays =
      simulate(sim::make_delta_key({0, 0, 0}, deadlines), 200000, 17);
  for (std::size_t f = 0; f < 3; ++f) {
    const double bound =
        sched::single_node_delay_bound(kCapacity, dm, env, f, eps);
    ASSERT_TRUE(std::isfinite(bound)) << "class " << f;
    const double empirical = delays[f].quantile(1.0 - eps);
    EXPECT_LE(empirical, bound) << "class " << f;
  }
}

TEST(MultiClassValidation, EdfAnalyticOrderMatchesEmpiricalOrder) {
  const std::vector<double> deadlines{5.0, 25.0, 120.0};
  const sched::DeltaMatrix dm = sched::DeltaMatrix::edf(deadlines);
  const double s = 0.01, gamma = 0.2, eps = 1e-3;
  const auto env = analytic_envelopes(s, gamma);
  const auto delays =
      simulate(sim::make_delta_key({0, 0, 0}, deadlines), 200000, 23);
  // Both the analytic bounds and the empirical tails must respect the
  // deadline ordering: tighter deadline -> smaller delay.
  double prev_bound = 0.0, prev_emp = 0.0;
  for (std::size_t f = 0; f < 3; ++f) {
    const double bound =
        sched::single_node_delay_bound(kCapacity, dm, env, f, eps);
    const double emp = delays[f].quantile(0.999);
    EXPECT_GE(bound, prev_bound) << "class " << f;
    EXPECT_GE(emp, prev_emp - 1.0) << "class " << f;
    prev_bound = bound;
    prev_emp = emp;
  }
}

TEST(MultiClassValidation, StaticPriorityBoundsDominate) {
  // Class 2 highest, class 0 lowest.
  const std::vector<int> priority{0, 1, 2};
  const sched::DeltaMatrix dm = sched::DeltaMatrix::static_priority(priority);
  const double s = 0.01, gamma = 0.2, eps = 1e-3;
  const auto env = analytic_envelopes(s, gamma);
  const auto delays =
      simulate(sim::make_delta_key(priority, {0.0, 0.0, 0.0}), 200000, 29);
  for (std::size_t f = 0; f < 3; ++f) {
    const double bound =
        sched::single_node_delay_bound(kCapacity, dm, env, f, eps);
    ASSERT_TRUE(std::isfinite(bound)) << "class " << f;
    EXPECT_LE(delays[f].quantile(1.0 - eps), bound) << "class " << f;
  }
}

}  // namespace
}  // namespace deltanc
