#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "sim/mmoo_source.h"
#include "sim/rng.h"
#include "sim/scheduler_queue.h"
#include "sim/stats.h"
#include "sim/tandem.h"

namespace deltanc::sim {
namespace {

using sched::SchedulerSpec;

TEST(Rng, DeterministicForFixedSeed) {
  Xoshiro256ss a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
  Xoshiro256ss c(43);
  EXPECT_NE(a(), c());
}

TEST(Rng, UniformInRangeWithSaneMean) {
  Xoshiro256ss rng(7);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, JumpProducesDisjointStream) {
  Xoshiro256ss a(5);
  Xoshiro256ss b = a;
  b.jump();
  std::set<std::uint64_t> from_a;
  for (int i = 0; i < 1000; ++i) from_a.insert(a());
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    if (from_a.count(b())) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(Rng, BernoulliFrequency) {
  Xoshiro256ss rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(MmooAggregate, StationaryOnFraction) {
  Xoshiro256ss rng(3);
  const auto model = traffic::MmooSource::paper_source();
  MmooAggregateSim agg(model, 200, rng);
  double on_sum = 0.0;
  const int slots = 100000;
  for (int t = 0; t < slots; ++t) {
    agg.step(rng);
    on_sum += agg.on_count();
  }
  EXPECT_NEAR(on_sum / slots / 200.0, model.stationary_on(),
              0.1 * model.stationary_on());
}

TEST(MmooAggregate, MeanRateMatchesAnalytic) {
  Xoshiro256ss rng(9);
  const auto model = traffic::MmooSource::paper_source();
  MmooAggregateSim agg(model, 100, rng);
  double kb = 0.0;
  const int slots = 200000;
  for (int t = 0; t < slots; ++t) kb += agg.step(rng);
  EXPECT_NEAR(kb / slots, 100.0 * model.mean_rate(),
              0.05 * 100.0 * model.mean_rate());
}

TEST(MmooAggregate, ZeroFlowsEmitNothing) {
  Xoshiro256ss rng(1);
  MmooAggregateSim agg(traffic::MmooSource::paper_source(), 0, rng);
  for (int t = 0; t < 10; ++t) {
    EXPECT_DOUBLE_EQ(agg.step(rng), 0.0);
  }
  EXPECT_THROW(
      MmooAggregateSim(traffic::MmooSource::paper_source(), -1, rng),
      std::invalid_argument);
}

Chunk chunk(int flow, double kb, double slot, std::uint64_t seq) {
  return Chunk{flow, kb, kb, slot, slot, 0.0, seq};
}

TEST(FifoDiscipline, ServesInArrivalOrderWithPartialService) {
  auto q = make_delta_key({0, 0}, {0.0, 0.0});
  q->enqueue(chunk(0, 5.0, 0, 0));
  q->enqueue(chunk(1, 5.0, 0, 1));
  EXPECT_DOUBLE_EQ(q->backlog(), 10.0);
  std::vector<Chunk> done;
  EXPECT_DOUBLE_EQ(q->serve(7.0, &done), 7.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].seq, 0u);
  EXPECT_DOUBLE_EQ(q->backlog(), 3.0);
  done.clear();
  EXPECT_DOUBLE_EQ(q->serve(10.0, &done), 3.0);  // work conserving
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].seq, 1u);
}

TEST(SpDiscipline, HighPriorityPreempts) {
  auto q = make_delta_key({0, 1}, {0.0, 0.0});  // flow 1 is high priority
  q->enqueue(chunk(0, 4.0, 0, 0));
  q->enqueue(chunk(1, 4.0, 0, 1));
  std::vector<Chunk> done;
  q->serve(4.0, &done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].flow, 1);  // high priority served first
  EXPECT_THROW(q->enqueue(chunk(7, 1.0, 0, 2)), std::out_of_range);
}

TEST(EdfDiscipline, EarliestDeadlineFirst) {
  auto q = make_delta_key({0, 0}, {10.0, 2.0});  // cross has the tight deadline
  q->enqueue(chunk(0, 4.0, 0, 0));
  q->enqueue(chunk(1, 4.0, 0, 1));
  std::vector<Chunk> done;
  q->serve(4.0, &done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].flow, 1);
}

TEST(EdfDiscipline, OlderArrivalWinsWithEqualDeadlineGap) {
  auto q = make_delta_key({0, 0}, {5.0, 5.0});
  q->enqueue(chunk(0, 4.0, 3, 0));  // deadline 8
  q->enqueue(chunk(1, 4.0, 1, 1));  // deadline 6 -> earlier
  std::vector<Chunk> done;
  q->serve(4.0, &done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].flow, 1);
}

TEST(EdfDiscipline, PartiallyServedChunkKeepsItsDeadline) {
  auto q = make_delta_key({0, 0}, {1.0, 100.0});
  q->enqueue(chunk(0, 10.0, 0, 0));
  q->enqueue(chunk(1, 10.0, 0, 1));
  std::vector<Chunk> done;
  q->serve(5.0, &done);  // half of chunk 0
  EXPECT_TRUE(done.empty());
  q->enqueue(chunk(1, 10.0, 1, 2));
  q->serve(5.0, &done);  // rest of chunk 0, still earliest
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].flow, 0);
}

TEST(DeltaKeyDiscipline, LevelsOutrankDeadlines) {
  // Three static-priority levels; an offset only orders within a level.
  auto q = make_delta_key({0, 1, 2}, {0.0, 50.0, 0.0});
  q->enqueue(chunk(0, 1.0, 0, 0));
  q->enqueue(chunk(1, 1.0, 0, 1));  // deadline 50, but level 1
  q->enqueue(chunk(2, 1.0, 0, 2));
  std::vector<Chunk> done;
  EXPECT_DOUBLE_EQ(q->serve(3.0, &done), 3.0);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].flow, 2);
  EXPECT_EQ(done[1].flow, 1);
  EXPECT_EQ(done[2].flow, 0);
}

TEST(DeltaKeyDiscipline, EqualLevelAndDeadlineServeInSeqOrder) {
  // Ties on (level, deadline) go by seq, not by enqueue order: the order
  // SCED's and SCFQ's equal stamps rely on.
  auto q = make_delta_key({0, 0}, {2.0, 0.0});
  q->enqueue(chunk(1, 1.0, 3, 9));  // deadline 3
  q->enqueue(chunk(0, 1.0, 1, 4));  // deadline 1 + 2 = 3
  q->enqueue(chunk(1, 1.0, 3, 7));  // deadline 3
  std::vector<Chunk> done;
  EXPECT_DOUBLE_EQ(q->serve(3.0, &done), 3.0);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].seq, 4u);
  EXPECT_EQ(done[1].seq, 7u);
  EXPECT_EQ(done[2].seq, 9u);
}

TEST(DeltaKeyDiscipline, RejectsNanOffsetsAndMismatchedClasses) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)make_delta_key({}, {}), std::invalid_argument);
  EXPECT_THROW((void)make_delta_key({0, 0}, {0.0}), std::invalid_argument);
  EXPECT_THROW((void)make_delta_key({0, 0}, {0.0, nan}), std::invalid_argument);
  EXPECT_NO_THROW((void)make_delta_key({0, 0}, {inf, 0.0}));
  EXPECT_NO_THROW((void)make_delta_key({0, 0}, {-inf, 0.0}));
}

TEST(GpsDiscipline, ProportionalSharing) {
  auto q = make_gps({3.0, 1.0});
  q->enqueue(chunk(0, 30.0, 0, 0));
  q->enqueue(chunk(1, 30.0, 0, 1));
  std::vector<Chunk> done;
  EXPECT_DOUBLE_EQ(q->serve(8.0, &done), 8.0);
  // 3:1 split of the 8 kb budget.
  EXPECT_NEAR(q->backlog(), 60.0 - 8.0, 1e-9);
  // Flow 0 got 6, flow 1 got 2: drain exactly the remainders to check.
  done.clear();
  q->serve(52.0, &done);
  ASSERT_EQ(done.size(), 2u);
}

TEST(GpsDiscipline, RedistributesWhenOneClassDrains) {
  auto q = make_gps({1.0, 1.0});
  q->enqueue(chunk(0, 2.0, 0, 0));
  q->enqueue(chunk(1, 10.0, 0, 1));
  std::vector<Chunk> done;
  // Equal split would give each 5, but flow 0 only has 2: the excess
  // goes to flow 1 (progressive filling), so all 10 kb are served.
  EXPECT_DOUBLE_EQ(q->serve(10.0, &done), 10.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(q->backlog(), 2.0);
  EXPECT_THROW((void)make_gps({1.0, 0.0}), std::invalid_argument);
}

TEST(DrrDiscipline, QuantumGrantsAndDeficitCarryOver) {
  auto q = make_drr({3.0, 1.0});
  q->enqueue(chunk(0, 3.0, 0, 0));
  q->enqueue(chunk(1, 2.0, 0, 1));
  std::vector<Chunk> done;
  // Visit 0 grants 3 kb (completes flow 0), visit 1 grants 1 kb of the
  // 2 kb chunk -- the budget runs out mid-visit.
  EXPECT_DOUBLE_EQ(q->serve(4.0, &done), 4.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].flow, 0);
  EXPECT_DOUBLE_EQ(q->backlog(), 1.0);
  done.clear();
  // The next slot re-grants flow 1's quantum and finishes the chunk
  // (work conserving: only 1 kb of backlog remains).
  EXPECT_DOUBLE_EQ(q->serve(10.0, &done), 1.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].flow, 1);
  EXPECT_THROW((void)make_drr({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)make_drr({}), std::invalid_argument);
}

TEST(DrrDiscipline, RoundRobinSharesByQuanta) {
  auto q = make_drr({3.0, 1.0});
  q->enqueue(chunk(0, 30.0, 0, 0));
  q->enqueue(chunk(1, 30.0, 0, 1));
  std::vector<Chunk> done;
  EXPECT_DOUBLE_EQ(q->serve(8.0, &done), 8.0);  // two rounds of 3 + 1
  EXPECT_NEAR(q->backlog(), 52.0, 1e-9);
  done.clear();
  // 3:1 rounds drain flow 0's remaining 24 kb after exactly 8 more
  // rounds of 4 kb; flow 1 got 8 of those 32 kb, leaving 20.
  EXPECT_DOUBLE_EQ(q->serve(32.0, &done), 32.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].flow, 0);
  EXPECT_NEAR(q->backlog(), 20.0, 1e-9);
}

TEST(ScedDiscipline, DeadlineCurvesOrderService) {
  // Rates 2:1 -- flow 0's virtual server advances twice as fast, so its
  // 4 kb chunk (deadline 2) beats flow 1's 3 kb chunk (deadline 3).
  auto q = make_sced({2.0, 1.0});
  q->enqueue(chunk(0, 4.0, 0, 0));
  q->enqueue(chunk(1, 3.0, 0, 1));
  std::vector<Chunk> done;
  EXPECT_DOUBLE_EQ(q->serve(4.0, &done), 4.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].flow, 0);
  // Finish times accumulate: a second flow-0 chunk at slot 1 gets
  // deadline max(F_0, 1) + 2/2 = 3, tying flow 1's -- FIFO tie-break
  // puts flow 1's earlier arrival first.
  q->enqueue(chunk(0, 2.0, 1, 2));
  done.clear();
  EXPECT_DOUBLE_EQ(q->serve(5.0, &done), 5.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].flow, 1);
  EXPECT_EQ(done[1].flow, 0);
  EXPECT_THROW((void)make_sced({}), std::invalid_argument);
  EXPECT_THROW((void)make_sced({1.0, -1.0}), std::invalid_argument);
  // A zero rate is legal only for a class that never sends.
  auto z = make_sced({1.0, 0.0});
  z->enqueue(chunk(0, 1.0, 0, 0));
  EXPECT_THROW(z->enqueue(chunk(1, 1.0, 0, 1)), std::invalid_argument);
}

TEST(Tandem, DrrAndScedDisciplinesRunEndToEnd) {
  // The lowered disciplines must run the full tandem and land between
  // the two static-priority extremes, like GPS does.
  TandemConfig c;
  c.hops = 2;
  c.n_through = 250;
  c.n_cross = 250;
  c.slots = 50000;
  TandemConfig hi = c;
  hi.scheduler = SchedulerSpec::sp_high();
  TandemConfig lo = c;
  lo.scheduler = SchedulerSpec::bmux();
  const double hi_tail = run_tandem(hi).through_delay.quantile(0.999);
  const double lo_tail = run_tandem(lo).through_delay.quantile(0.999);
  for (const SchedulerSpec& spec :
       {SchedulerSpec::drr(), SchedulerSpec::sced()}) {
    TandemConfig cc = c;
    cc.scheduler = spec;
    const TandemResult r = run_tandem(cc);
    ASSERT_GT(r.through_delay.count(), 0u);
    const double tail = r.through_delay.quantile(0.999);
    EXPECT_GE(tail, hi_tail - 1.0);
    EXPECT_LE(tail, lo_tail + 1.0);
  }
}

TEST(NodeBasics, WorkConservingBudget) {
  // A node serves its capacity per slot straight from the discipline.
  auto node = make_delta_key({0}, {0.0});
  node->enqueue(chunk(0, 25.0, 0, 0));
  std::vector<Chunk> done;
  EXPECT_DOUBLE_EQ(node->serve(10.0, &done), 10.0);
  EXPECT_DOUBLE_EQ(node->serve(10.0, &done), 10.0);
  EXPECT_DOUBLE_EQ(node->serve(10.0, &done), 5.0);
  EXPECT_DOUBLE_EQ(node->serve(10.0, &done), 0.0);
  ASSERT_EQ(done.size(), 1u);
}

TEST(DelayRecorderStats, MomentsAndQuantiles) {
  DelayRecorder r;
  for (int i = 1; i <= 100; ++i) r.add(static_cast<double>(i));
  EXPECT_EQ(r.count(), 100u);
  EXPECT_NEAR(r.mean(), 50.5, 1e-9);
  EXPECT_NEAR(r.variance(), 841.66666, 1e-3);
  EXPECT_DOUBLE_EQ(r.max(), 100.0);
  EXPECT_NEAR(r.quantile(0.5), 50.0, 1.0);
  EXPECT_DOUBLE_EQ(r.quantile(1.0), 100.0);
  EXPECT_NEAR(r.exceed_fraction(90.0), 0.10, 1e-9);
  EXPECT_THROW((void)r.quantile(1.5), std::invalid_argument);
  DelayRecorder empty;
  EXPECT_THROW((void)empty.quantile(0.5), std::logic_error);
}

TEST(QuantileResolvability, TailSampleThreshold) {
  // The shared heuristic: the (1 - eps) quantile is trusted only when
  // eps * samples >= min_tail_samples (default 50).
  EXPECT_TRUE(quantile_resolvable(1e-3, 50000));     // 50 tail samples
  EXPECT_FALSE(quantile_resolvable(1e-3, 49999));    // 49.999
  EXPECT_TRUE(quantile_resolvable(1e-6, 100000000));
  EXPECT_FALSE(quantile_resolvable(1e-6, 1000000));  // only 1 tail sample
  // Custom tail requirement (PathAnalyzer::validate uses 100).
  EXPECT_TRUE(quantile_resolvable(1e-3, 100000, 100.0));
  EXPECT_FALSE(quantile_resolvable(1e-3, 99999, 100.0));
  // Degenerate inputs are never resolvable.
  EXPECT_FALSE(quantile_resolvable(0.0, 100000));
  EXPECT_FALSE(quantile_resolvable(-1e-3, 100000));
  EXPECT_FALSE(quantile_resolvable(1e-3, 0));
}

TEST(QuantileResolvability, DeepestEpsilonSelection) {
  // eps = min_tail / samples, clamped into [floor, 0.5]; consistent
  // with quantile_resolvable at the returned level.
  EXPECT_DOUBLE_EQ(deepest_resolvable_epsilon(100000, 100.0, 1e-9), 1e-3);
  EXPECT_TRUE(quantile_resolvable(
      deepest_resolvable_epsilon(100000, 100.0, 1e-9), 100000, 100.0));
  // The floor wins when the sample budget could resolve deeper.
  EXPECT_DOUBLE_EQ(deepest_resolvable_epsilon(1000000000, 50.0, 1e-6), 1e-6);
  // Tiny runs clamp to 0.5 (the median is the best one can do).
  EXPECT_DOUBLE_EQ(deepest_resolvable_epsilon(10, 50.0, 1e-9), 0.5);
  EXPECT_DOUBLE_EQ(deepest_resolvable_epsilon(0, 50.0, 1e-9), 0.5);
}

TEST(Tandem, LightLoadDelaysAreMinimal) {
  TandemConfig c;
  c.hops = 3;
  c.n_through = 5;
  c.n_cross = 5;
  c.slots = 20000;
  const TandemResult r = run_tandem(c);
  ASSERT_GT(r.through_delay.count(), 0u);
  // 5+5 flows of 1.5 Mbps peak on a 100 Mbps link: no queueing, every
  // chunk crosses each node in one slot.
  EXPECT_DOUBLE_EQ(r.through_delay.max(), 3.0);
}

TEST(Tandem, UtilizationMatchesOfferedLoad) {
  TandemConfig c;
  c.hops = 2;
  c.n_through = 100;
  c.n_cross = 100;
  c.slots = 100000;
  const TandemResult r = run_tandem(c);
  const double load =
      200.0 * c.source.mean_rate() / c.capacity_kb_per_slot;
  EXPECT_NEAR(r.mean_utilization, load, 0.1 * load);
}

TEST(Tandem, ReproducibleForFixedSeed) {
  TandemConfig c;
  c.hops = 2;
  c.n_through = 250;  // heavy enough that queueing noise is visible
  c.n_cross = 250;
  c.slots = 20000;
  c.seed = 77;
  const TandemResult a = run_tandem(c);
  const TandemResult b = run_tandem(c);
  EXPECT_EQ(a.through_delay.count(), b.through_delay.count());
  EXPECT_DOUBLE_EQ(a.through_delay.mean(), b.through_delay.mean());
  c.seed = 78;
  const TandemResult d = run_tandem(c);
  EXPECT_NE(a.through_delay.mean(), d.through_delay.mean());
}

TEST(Tandem, SchedulerOrderingUnderLoad) {
  // At high utilization the through traffic's tail delay must order as
  // SP-high <= EDF(favoured) <= FIFO <= SP-low (blind multiplexing).
  TandemConfig c;
  c.hops = 3;
  c.n_through = 250;
  c.n_cross = 250;
  c.slots = 150000;
  c.edf_unit = 5.0;  // deadlines 5 / 50 slots

  const auto tail = [&](const SchedulerSpec& spec) {
    TandemConfig cc = c;
    cc.scheduler = spec;
    return run_tandem(cc).through_delay.quantile(0.999);
  };
  const double sp_high = tail(SchedulerSpec::sp_high());
  const double edf = tail(SchedulerSpec::edf(1.0, 10.0));
  const double fifo = tail(SchedulerSpec::fifo());
  const double sp_low = tail(SchedulerSpec::bmux());
  EXPECT_LE(sp_high, edf + 1.0);
  EXPECT_LE(edf, fifo + 1.0);
  EXPECT_LE(fifo, sp_low + 1.0);
  EXPECT_LT(sp_high, sp_low);  // the spread is real, not noise
}

TEST(Tandem, GpsIsNotOrderedLikeADeltaScheduler) {
  // GPS's precedence depends on the backlog realization (the paper's
  // reason it is not a Delta-scheduler); with equal weights its through
  // delay falls strictly between SP-high and SP-low under load.
  TandemConfig c;
  c.hops = 2;
  c.n_through = 250;
  c.n_cross = 250;
  c.slots = 100000;
  c.scheduler = SchedulerSpec::gps();
  const double gps = run_tandem(c).through_delay.quantile(0.999);
  TandemConfig hi = c;
  hi.scheduler = SchedulerSpec::sp_high();
  TandemConfig lo = c;
  lo.scheduler = SchedulerSpec::bmux();
  EXPECT_GE(gps, run_tandem(hi).through_delay.quantile(0.999) - 1.0);
  EXPECT_LE(gps, run_tandem(lo).through_delay.quantile(0.999) + 1.0);
}

TEST(Tandem, ValidatesConfig) {
  TandemConfig c;
  c.hops = 0;
  EXPECT_THROW((void)run_tandem(c), std::invalid_argument);
  c.hops = 1;
  c.slots = 0;
  EXPECT_THROW((void)run_tandem(c), std::invalid_argument);
  // Non-finite sizes would otherwise simulate nothing: zero samples and
  // zero utilization instead of an error.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TandemConfig ok;
  ok.slots = 10;
  EXPECT_NO_THROW((void)run_tandem(ok));
  for (const double v : {nan, inf, -1.0}) {
    TandemConfig bad = ok;
    bad.packet_kb = v;
    EXPECT_THROW((void)run_tandem(bad), std::invalid_argument)
        << "packet_kb " << v;
  }
  for (const double v : {nan, inf, -inf, 0.0}) {
    TandemConfig bad = ok;
    bad.capacity_kb_per_slot = v;
    EXPECT_THROW((void)run_tandem(bad), std::invalid_argument)
        << "capacity " << v;
    bad = ok;
    bad.edf_unit = v;
    EXPECT_THROW((void)run_tandem(bad), std::invalid_argument)
        << "edf_unit " << v;
  }
  // A NaN offset would leave the Delta-key heap without a strict weak
  // order.
  for (const SchedulerSpec& spec :
       {SchedulerSpec::fixed_delta(nan), SchedulerSpec::edf(nan, 10.0),
        SchedulerSpec::edf(1.0, nan)}) {
    TandemConfig bad = ok;
    bad.scheduler = spec;
    EXPECT_THROW((void)run_tandem(bad), std::invalid_argument)
        << to_string(spec);
  }
}

}  // namespace
}  // namespace deltanc::sim
