// Seeded randomized stress harness (tentpole part 4): samples scenarios
// across the valid parameter space -- capacities, path lengths, loads up
// to and beyond instability, epsilons, all four schedulers, random MMOO
// sources -- and asserts the structural invariants the theory guarantees:
// every solve is NaN-free and either finite or loudly classified, overload
// is equivalent to a kUnstable +inf, exact <= paper-K, the scheduler
// ordering holds, and the sweep engine's per-kind aggregation matches a
// manual recount.  The seed is fixed for reproducibility and overridable
// via the DELTANC_STRESS_SEED environment variable (ctest registers it
// with the default seed).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/selfcheck.h"
#include "core/sweep.h"
#include "e2e/param_search.h"
#include "e2e/solver.h"
#include "traffic/mmoo.h"

namespace deltanc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kScenarios = 220;  // >= 200 per the acceptance criteria

std::uint64_t stress_seed() {
  if (const char* env = std::getenv("DELTANC_STRESS_SEED")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return parsed;
  }
  return 20260806ull;
}

/// One random but *valid* scenario: validate() must come back ok()
/// (possibly unstable -- loads are sampled up to 115% on purpose).
e2e::Scenario random_scenario(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  e2e::Scenario sc;
  sc.capacity = std::pow(10.0, 1.0 + 1.5 * unit(rng));  // 10 .. ~316 Mbps
  sc.hops = 1 + static_cast<int>(16.0 * unit(rng));
  if (unit(rng) < 0.3) {
    // A non-paper source: p11, p22 >= 0.5 guarantees p12 + p21 <= 1.
    sc.source = traffic::MmooSource(0.5 + 4.0 * unit(rng),
                                    0.5 + 0.49 * unit(rng),
                                    0.5 + 0.49 * unit(rng));
  }
  const double total_u = 0.05 + 1.10 * unit(rng);  // spans the instability
  const double through_share = 0.1 + 0.8 * unit(rng);
  const double flows = sc.capacity * total_u / sc.source.mean_rate();
  sc.n_through = std::max(1, static_cast<int>(flows * through_share));
  sc.n_cross = std::max(0, static_cast<int>(flows * (1.0 - through_share)));
  sc.epsilon = std::pow(10.0, -12.0 + 10.0 * unit(rng));
  const double pick = unit(rng);
  sc.scheduler = pick < 0.25   ? sched::SchedulerKind::kFifo
                 : pick < 0.5  ? sched::SchedulerKind::kBmux
                 : pick < 0.75 ? sched::SchedulerKind::kSpHigh
                               : sched::SchedulerKind::kEdf;
  sc.scheduler.set_edf_factors(
      sched::EdfFactors{std::pow(10.0, -1.0 + 2.0 * unit(rng)),
                        std::pow(10.0, -1.0 + 2.3 * unit(rng))});
  return sc;
}

class SolverStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::mt19937_64 rng(stress_seed());
    scenarios_ = new std::vector<e2e::Scenario>();
    for (int i = 0; i < kScenarios; ++i) {
      scenarios_->push_back(random_scenario(rng));
    }
    SweepOptions options;
    report_ = new SweepReport(
        SweepRunner(options).run(std::span<const e2e::Scenario>(*scenarios_)));
  }
  static void TearDownTestSuite() {
    delete report_;
    delete scenarios_;
    report_ = nullptr;
    scenarios_ = nullptr;
  }

  static std::vector<e2e::Scenario>* scenarios_;
  static SweepReport* report_;
};

std::vector<e2e::Scenario>* SolverStressTest::scenarios_ = nullptr;
SweepReport* SolverStressTest::report_ = nullptr;

TEST_F(SolverStressTest, GeneratedScenariosAreValid) {
  for (const e2e::Scenario& sc : *scenarios_) {
    const diag::ValidationReport vr = sc.validate();
    EXPECT_TRUE(vr.ok()) << vr.message();
  }
}

TEST_F(SolverStressTest, EverySolveIsFiniteOrClassified) {
  ASSERT_EQ(report_->points.size(), static_cast<std::size_t>(kScenarios));
  for (std::size_t i = 0; i < report_->points.size(); ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i) +
                 " seed=" + std::to_string(stress_seed()));
    const SweepPoint& p = report_->points[i];
    ASSERT_TRUE(p.ok) << p.error;
    const e2e::BoundResult& r = p.bound;
    EXPECT_FALSE(std::isnan(r.delay_ms));
    EXPECT_FALSE(std::isnan(r.gamma));
    EXPECT_FALSE(std::isnan(r.s));
    EXPECT_FALSE(std::isnan(r.sigma));
    EXPECT_FALSE(std::isnan(r.delta));
    const double u = p.scenario.utilization();
    if (u >= 1.0) {
      // Overload <=> classified kUnstable with a +inf bound.
      EXPECT_EQ(r.delay_ms, kInf);
      EXPECT_EQ(r.diagnostics.error, diag::SolveErrorKind::kUnstable);
    } else if (std::isfinite(r.delay_ms)) {
      EXPECT_GE(r.delay_ms, 0.0);
      EXPECT_GT(r.s, 0.0);
      EXPECT_TRUE(std::isfinite(r.gamma));
    } else {
      // A +inf bound below the stability limit must be *loudly*
      // classified -- zero unclassified failures is the contract.
      EXPECT_NE(r.diagnostics.error, diag::SolveErrorKind::kNone)
          << "unclassified +inf at U = " << u;
    }
    for (const diag::Warning& w : r.diagnostics.warnings) {
      EXPECT_EQ(w.kind, diag::SolveErrorKind::kNoConvergence);
    }
    if (!r.stats.edf_converged) {
      EXPECT_FALSE(r.diagnostics.warnings.empty())
          << "exhausted EDF fixed point without a warning";
    }
  }
}

TEST_F(SolverStressTest, PerKindCountsMatchManualRecount) {
  const diag::ErrorCounts counts = report_->counts_by_kind();
  diag::ErrorCounts manual;
  for (const SweepPoint& p : report_->points) {
    manual.record(p.bound.diagnostics);
  }
  // All stress scenarios are valid and the default solver classifies
  // every +inf itself, so the sweep's aggregation must equal a plain
  // per-point recount.
  for (std::size_t k = 0; k < diag::kSolveErrorKinds; ++k) {
    EXPECT_EQ(counts.errors[k], manual.errors[k]) << "kind " << k;
    EXPECT_EQ(counts.warnings[k], manual.warnings[k]) << "kind " << k;
  }
  EXPECT_EQ(counts.errors[static_cast<std::size_t>(
                diag::SolveErrorKind::kInvalidScenario)],
            0u);
}

TEST_F(SolverStressTest, ExactNeverExceedsPaperK) {
  // The K-procedure restricts the exact search, so exact <= paper-K up
  // to search tolerance; +inf on the paper-K side is acceptable.
  for (std::size_t i = 0; i < report_->points.size(); i += 9) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    const double exact = report_->points[i].bound.delay_ms;
    const double paperk =
        deltanc::Solver(e2e::Method::kPaperK).solve((*scenarios_)[i]).delay_ms;
    if (paperk == kInf) continue;
    EXPECT_LE(exact, paperk * (1.0 + 1e-3));
  }
}

TEST_F(SolverStressTest, SchedulerOrderingHoldsOnStressPoints) {
  // Expand a deterministic subset into all four schedulers and run the
  // full invariant battery (Delta-ordering, finiteness, classification,
  // exact vs paper-K agreement).
  std::size_t checked = 0;
  for (std::size_t i = 0; i < scenarios_->size(); i += 23) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    const SelfCheckReport report = self_check((*scenarios_)[i]);
    EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                     ? ""
                                     : report.issues.front().detail);
    ++checked;
  }
  EXPECT_GE(checked, 5u);
}

TEST(SolverStressInvalid, DeliberatelyInvalidScenariosAreClassified) {
  // Malformed inputs mixed into a sweep must come back as per-point
  // kInvalidScenario classifications with multi-violation messages --
  // never a bare exception or an aborted sweep.
  e2e::Scenario broken;  // three violations at once
  broken.capacity = -1.0;
  broken.hops = 0;
  broken.epsilon = 7.0;
  const diag::ValidationReport vr = broken.validate();
  EXPECT_FALSE(vr.ok());
  EXPECT_GE(vr.error_count(), 3u);
  EXPECT_THROW((void)deltanc::Solver().solve(broken), std::invalid_argument);

  std::vector<e2e::Scenario> scenarios = {e2e::Scenario{}, broken,
                                          e2e::Scenario{}};
  const SweepReport report =
      SweepRunner().run(std::span<const e2e::Scenario>(scenarios));
  ASSERT_EQ(report.points.size(), 3u);
  EXPECT_TRUE(report.points[0].ok);
  EXPECT_TRUE(report.points[2].ok);
  const SweepPoint& bad = report.points[1];
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.bound.diagnostics.error,
            diag::SolveErrorKind::kInvalidScenario);
  EXPECT_NE(bad.error.find("capacity"), std::string::npos) << bad.error;
  EXPECT_NE(bad.error.find("hops"), std::string::npos) << bad.error;
  EXPECT_NE(bad.error.find("epsilon"), std::string::npos) << bad.error;
  EXPECT_EQ(report.failures(), 1u);
  const diag::ErrorCounts counts = report.counts_by_kind();
  EXPECT_EQ(counts.errors[static_cast<std::size_t>(
                diag::SolveErrorKind::kInvalidScenario)],
            1u);
}

}  // namespace
}  // namespace deltanc
