#include "core/diagnostics.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace deltanc::diag {
namespace {

TEST(Diagnostics, DefaultIsClean) {
  const Diagnostics d;
  EXPECT_TRUE(d.ok());
  EXPECT_TRUE(d.clean());
  EXPECT_EQ(d.error, SolveErrorKind::kNone);
}

TEST(Diagnostics, FailAndWarnClassify) {
  Diagnostics d;
  d.warn(SolveErrorKind::kNoConvergence, "fixed point stalled");
  EXPECT_TRUE(d.ok());       // warnings keep the result usable
  EXPECT_FALSE(d.clean());
  d.fail(SolveErrorKind::kUnstable, "load >= capacity");
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.error, SolveErrorKind::kUnstable);
  EXPECT_EQ(d.message, "load >= capacity");
  ASSERT_EQ(d.warnings.size(), 1u);
  EXPECT_EQ(d.warnings[0].kind, SolveErrorKind::kNoConvergence);
}

TEST(Diagnostics, ErrorNamesAreStable) {
  EXPECT_STREQ(solve_error_name(SolveErrorKind::kNone), "none");
  EXPECT_STREQ(solve_error_name(SolveErrorKind::kInvalidScenario),
               "invalid-scenario");
  EXPECT_STREQ(solve_error_name(SolveErrorKind::kUnstable), "unstable");
  EXPECT_STREQ(solve_error_name(SolveErrorKind::kNoConvergence),
               "no-convergence");
  EXPECT_STREQ(solve_error_name(SolveErrorKind::kNumericalDomain),
               "numerical-domain");
}

TEST(Diagnostics, RetiredKindNamesAreRejectedAndTheRestRoundTrip) {
  // Lost workers and failed cache stores are not error kinds (a failed
  // store is counted in io::CacheStats), so those names do not decode.
  SolveErrorKind kind = SolveErrorKind::kNone;
  EXPECT_FALSE(solve_error_from_name("worker-lost", kind));
  EXPECT_FALSE(solve_error_from_name("cache-store-failed", kind));

  EXPECT_EQ(kSolveErrorKinds, 8u);
  EXPECT_EQ(static_cast<std::size_t>(SolveErrorKind::kOverload) + 1,
            kSolveErrorKinds);
  for (std::size_t i = 0; i < kSolveErrorKinds; ++i) {
    const auto expected = static_cast<SolveErrorKind>(i);
    SolveErrorKind decoded = SolveErrorKind::kNone;
    ASSERT_TRUE(solve_error_from_name(solve_error_name(expected), decoded))
        << solve_error_name(expected);
    EXPECT_EQ(decoded, expected);
  }
}

TEST(ValidationReport, CollectsMultipleViolations) {
  ValidationReport report;
  report.add(SolveErrorKind::kInvalidScenario, "capacity", "must be > 0");
  report.add(SolveErrorKind::kInvalidScenario, "epsilon",
             "must lie in (0, 1)");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.error_count(), 2u);
  ASSERT_EQ(report.violations().size(), 2u);
  EXPECT_EQ(report.message(),
            "capacity: must be > 0; epsilon: must lie in (0, 1)");
  try {
    report.throw_if_invalid("test");
    FAIL() << "throw_if_invalid did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "test: capacity: must be > 0; epsilon: must lie in (0, 1)");
  }
}

TEST(ValidationReport, UnstableDoesNotInvalidate) {
  // kUnstable marks a well-formed but overloaded scenario: the report
  // stays ok() (solvable) and throw_if_invalid is a no-op.
  ValidationReport report;
  report.add(SolveErrorKind::kUnstable, "utilization", "offered load 120%");
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.stable());
  EXPECT_EQ(report.error_count(), 0u);
  EXPECT_NO_THROW(report.throw_if_invalid("test"));
}

TEST(ErrorCounts, TalliesPerKindAndMerges) {
  Diagnostics unstable;
  unstable.fail(SolveErrorKind::kUnstable, "overload");
  Diagnostics warned;
  warned.warn(SolveErrorKind::kNoConvergence, "stalled");
  warned.warn(SolveErrorKind::kNoConvergence, "stalled again");

  ErrorCounts counts;
  counts.record(unstable);
  counts.record(unstable);
  counts.record(warned);
  counts.record(Diagnostics{});  // clean: contributes nothing
  counts.record_error(SolveErrorKind::kInvalidScenario);
  counts.record_error(SolveErrorKind::kNone);  // ignored

  EXPECT_EQ(counts.errors[static_cast<std::size_t>(SolveErrorKind::kUnstable)],
            2u);
  EXPECT_EQ(counts.errors[static_cast<std::size_t>(
                SolveErrorKind::kInvalidScenario)],
            1u);
  EXPECT_EQ(counts.warnings[static_cast<std::size_t>(
                SolveErrorKind::kNoConvergence)],
            2u);
  EXPECT_EQ(counts.total_errors(), 3u);
  EXPECT_EQ(counts.total_warnings(), 2u);
  EXPECT_EQ(counts.summary(),
            "invalid-scenario=1 unstable=2 no-convergence(warn)=2");

  ErrorCounts other;
  other.record_error(SolveErrorKind::kNumericalDomain);
  counts += other;
  EXPECT_EQ(counts.total_errors(), 4u);
}

TEST(ErrorCounts, CleanSummaryIsEmpty) {
  EXPECT_EQ(ErrorCounts{}.summary(), "");
  EXPECT_EQ(ErrorCounts{}.total_errors(), 0u);
  EXPECT_EQ(ErrorCounts{}.total_warnings(), 0u);
}

}  // namespace
}  // namespace deltanc::diag
