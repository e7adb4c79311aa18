// JSONL batch solve service -- the engine behind `deltanc_cli --batch`.
//
// Input: one JSON request object per line:
//   {"schema": N, "scenario": {...}, "options": {...}, "id": <any>}
//   {"schema": N, "scenario": {...}, "epsilons": [...], ...}
// "options" (see io::decode_solve_options) and "id" are optional; blank
// lines are skipped.  A non-empty "epsilons" array makes the line a
// *profile* request: the whole d(epsilon) grid is solved (or served from
// the cache) as one artifact.  Output: one JSON response per request,
// streamed in *input order*:
//   {"schema": N, "id": <echoed>, "ok": true,  "cache": "hit"|"miss"|
//    "stale"|"corrupt", "result": {...}}            -- solved/served
//     (the "cache" field appears only when a ResultCache is attached)
//   {"schema": N, "id": <echoed>, "ok": true,  ["cache"], "profile":
//    {...}}                                         -- profile request
//   {"schema": N, "id": <echoed>, "ok": false, "error": "..."}
//                                                    -- unparseable line
//
// Caching: with a ResultCache attached, every request is looked up
// first; hits are answered without solving, and every solved result is
// stored back.  A stale entry (other schema or library version) and a
// corrupt entry (unreadable bytes) both re-solve and overwrite; a
// corrupt one additionally tags the result with a diag::kCorruptCache
// warning so the recovery is visible downstream.  The outcome itself is
// recorded once, outside the result: in the response's "cache" tag and
// in BatchSummary::cache_stats.  result.stats carries the deterministic
// solver counters only, so a response's bytes depend on the request
// alone, whatever the thread count or the cache tier that answered.
//
// Parallelism: every cache miss -- scalar or profile -- goes through one
// parallel_for (core/thread_pool.h: a shared atomic cursor over the
// misses; one Solver per distinct solve-options group), the same fan-out
// a sweep uses, so a cold batch gets a sweep's thread scaling while
// responses stay deterministically ordered.
#pragma once

#include <functional>
#include <iosfwd>
#include <variant>
#include <vector>

#include "io/result_cache.h"

namespace deltanc {
class Solver;  // e2e/solver.h
}

namespace deltanc::io {

struct BatchOptions {
  /// Worker count for the solve fan-out; 0 = DELTANC_THREADS env or
  /// hardware_concurrency() (default_thread_count(), core/thread_pool.h).
  int threads = 0;
  /// Method used when a request carries no "options" object.
  e2e::Method default_method = e2e::Method::kExactOpt;
  /// Optional persistent cache; nullptr = solve everything.
  ResultCache* cache = nullptr;
  /// Called after each solved (not cached) request, with (done, total)
  /// over the miss set; serialized, `done` strictly increasing.
  std::function<void(std::size_t done, std::size_t total)> progress;
};

/// Totals of one run_batch call.
struct BatchSummary {
  std::int64_t requests = 0;      ///< non-blank input lines
  std::int64_t responses = 0;     ///< response lines written (== requests)
  std::int64_t parse_errors = 0;  ///< lines answered with ok=false
  std::int64_t solved = 0;        ///< answered by running the solver
  std::int64_t cached = 0;        ///< answered from the cache
  std::int64_t failed = 0;        ///< solver threw (response ok=true,
                                  ///<   result carries the +inf bound)
  /// The output stream went bad mid-emission (e.g. the consumer of a
  /// `--batch | head` pipe hung up); remaining responses were not
  /// written.  The CLI turns this into a classified exit code instead
  /// of dying on SIGPIPE.
  bool output_failed = false;
  double wall_ms = 0.0;           ///< end-to-end wall clock
  e2e::SolveStats stats{};        ///< summed over all ok responses
  CacheStats cache_stats{};       ///< cache traffic of this run
};

/// Reads JSONL requests from `in`, writes JSONL responses to `out`
/// (nothing else -- `out` stays machine-parseable), returns the totals.
/// A final line without a trailing newline is a request like any other.
BatchSummary run_batch(std::istream& in, std::ostream& out,
                       const BatchOptions& options = {});

// ----- pieces shared with the persistent solve service (src/serve) -------
// The serve workers must answer with responses *byte-identical* to
// run_batch's (scripts/check_serve.sh diffs them), so the request
// grammar, the cache-outcome bookkeeping, and the response layout live
// here once and are consumed by both paths.

/// One parsed request line: the effective scenario (scheduler override
/// folded in), canonical options, and the cache key they hash to.
struct ParsedRequestLine {
  json::Value id;          ///< echoed verbatim (null when absent)
  e2e::Scenario scenario;  ///< effective (scheduler override folded in)
  SolveOptions options;    ///< canonical (scheduler cleared)
  /// Non-empty for profile requests: the d(epsilon) grid to solve,
  /// validated at parse time (each level in (0, 1)).
  std::vector<double> epsilons;
  std::string key;  ///< io::solve_cache_key / profile_cache_key

  [[nodiscard]] bool is_profile() const noexcept { return !epsilons.empty(); }
};

/// Parses one JSONL request line ({"schema", "scenario", "options"?,
/// "id"?}).  @throws on malformed JSON / wrong schema / undecodable
/// payloads; when the document carried a readable "id", the exception
/// is PartialRequestError so error responses can still echo it.
[[nodiscard]] ParsedRequestLine parse_request_line(
    const std::string& line, e2e::Method default_method);

/// A request that failed to parse *after* its "id" was read: carries
/// the id so the error response can echo it.
struct PartialRequestError : std::runtime_error {
  PartialRequestError(const std::string& what, json::Value id_in)
      : std::runtime_error(what), id(std::move(id_in)) {}
  json::Value id;
};

/// Stable wire name of a lookup outcome ("hit"/"miss"/"stale"/"corrupt").
[[nodiscard]] const char* cache_lookup_name(CacheLookup outcome);

/// One request's classified answer: the scalar bound or the whole
/// d(epsilon) profile, whichever the request asked for.
struct Answer {
  std::variant<e2e::BoundResult, e2e::DelayProfile> payload;
  bool ok = true;     ///< false when the scenario failed to validate or
                      ///< the solve threw
  std::string error;  ///< the failure message when !ok
};

/// Solves one parsed request with SweepRunner's classification rule,
/// shared by run_batch and the serve workers so both paths answer
/// byte-identically: validate first (kInvalidScenario naming every bad
/// field), then a throwing solve classifies as kNumericalDomain.  A
/// failure is still an answer: the classified +inf bound (on every level
/// of a profile request), so the response stays ok=true with per-result
/// diagnostics.
[[nodiscard]] Answer solve_request(const deltanc::Solver& solver,
                                   const ParsedRequestLine& line);

/// Looks `line.key` up in `cache` as an entry of the request's kind; a
/// hit is decoded straight into `answer`.
[[nodiscard]] CacheLookup lookup_answer(ResultCache& cache,
                                        const ParsedRequestLine& line,
                                        Answer& answer);

/// Stores the answer's payload under `key` (ResultCache::try_store /
/// try_store_profile: a failed write is counted, never thrown).
bool try_store_answer(ResultCache& cache, const std::string& key,
                      const Answer& answer);

/// Applies the cache-outcome bookkeeping run_batch performs on a result
/// before emission: a kCorrupt outcome appends the kCorruptCache
/// recovery warning; every other outcome leaves the result untouched
/// (the outcome itself is reported by the "cache" tag and CacheStats).
void apply_cache_outcome(e2e::BoundResult& result, CacheLookup outcome,
                         const std::string& key);

/// Profile flavor: the kCorrupt recovery warning lands on the first
/// level's diagnostics (the profile itself carries none).
void apply_cache_outcome(e2e::DelayProfile& profile, CacheLookup outcome,
                         const std::string& key);

/// Answer flavor: dispatches to the payload's overload.
void apply_cache_outcome(Answer& answer, CacheLookup outcome,
                         const std::string& key);

/// The solved/served response document ({"schema", "id", "ok": true,
/// ["cache"], "result"}); `with_cache_tag` mirrors "a ResultCache is
/// attached".
[[nodiscard]] json::Value make_ok_response(const json::Value& id,
                                           bool with_cache_tag,
                                           CacheLookup outcome,
                                           const e2e::BoundResult& result);

/// The profile response document ({"schema", "id", "ok": true,
/// ["cache"], "profile"}) -- same layout discipline as make_ok_response
/// with the payload under "profile".
[[nodiscard]] json::Value make_ok_profile_response(
    const json::Value& id, bool with_cache_tag, CacheLookup outcome,
    const e2e::DelayProfile& profile);

/// The response document of an answer: "result" or "profile" by kind.
[[nodiscard]] json::Value make_ok_response(const json::Value& id,
                                           bool with_cache_tag,
                                           CacheLookup outcome,
                                           const Answer& answer);

/// The error response document ({"schema", "id", "ok": false, "error",
/// ["kind"]}); `kind` (diag::solve_error_name) is emitted by the serve
/// layer for classified service failures (timeout/overload/worker-lost)
/// and omitted (kNone) for plain parse errors, matching run_batch.
[[nodiscard]] json::Value make_error_response(
    const json::Value& id, const std::string& error,
    diag::SolveErrorKind kind = diag::SolveErrorKind::kNone);

}  // namespace deltanc::io
