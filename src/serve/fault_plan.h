// Deterministic fault injection for the persistent solve service.
//
// The robustness paths of serve::SolveService that a healthy machine
// rarely takes -- slow solves tripping the per-request deadline, cache
// stores failing on a full disk -- must be reachable on demand in CI,
// not only when the hardware misbehaves.  A FaultPlan is a small parsed
// script of such faults, armed from the `--fault-plan` CLI flag, so a
// test run replays the same failure sequence every time.  (A corrupt
// cache entry needs no injection: tests corrupt the bytes on disk.)
//
// Grammar (semicolon-separated entries):
//   delay:<id>:<ms>    solving the request whose "id" is a number
//                      equal to <id> sleeps <ms> ms first (before the
//                      cache lookup, so even a warm hit can exceed a
//                      deadline)
//   store-fail:<n>     the first <n> disk-cache stores fail per shard
//                      (full-disk simulation via
//                      ResultCache::fail_next_stores)
//
// Example: "delay:7:2000;store-fail:1"
//
// The plan is immutable after parse, so the service threads share it
// without locking.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace deltanc::serve {

/// One parsed fault script (see file comment for the grammar).
struct FaultPlan {
  struct Delay {
    double id = 0.0;   ///< matches the request's numeric "id"
    double ms = 0.0;   ///< sleep duration
  };

  std::vector<Delay> delays;
  int store_failures = 0;  ///< per-shard budget of failing stores

  [[nodiscard]] bool empty() const noexcept {
    return delays.empty() && store_failures == 0;
  }

  /// Parses the grammar above.  Returns false (with `error` naming the
  /// offending entry) on malformed specs; an empty spec parses to an
  /// empty plan.
  static bool parse(const std::string& spec, FaultPlan& out,
                    std::string& error);

  /// Canonical round-trip spelling of the plan ("" when empty).
  [[nodiscard]] std::string to_string() const;

  /// Sleep (ms) injected before handling the request whose id is
  /// written as `id` (ParsedRequestLine::id): the sum of the delay
  /// entries matching its numeric value, 0 when none or when the id is
  /// not a number.
  [[nodiscard]] double delay_ms_for(std::string_view id) const;
};

}  // namespace deltanc::serve
