// JSONL batch solve service -- the engine behind `deltanc_cli --batch`.
//
// Input: one JSON request object per line:
//   {"schema": N, "scenario": {...}, "options": {...}, "id": <any>}
//   {"schema": N, "scenario": {...}, "epsilons": [...], ...}
// "options" (see io::decode_solve_options) and "id" are optional; blank
// lines are skipped; a line longer than kMaxRequestLineBytes is refused
// unparsed.  A non-empty "epsilons" array makes the line a
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
#include <string>
#include <string_view>
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

/// The most levels a profile request's "epsilons" grid (or `deltanc_cli
/// --ccdf` points) may hold.  Every level is solved, written into the
/// response and stored in the cache entry (~0.5 kB each), so a larger
/// grid is a parse error rather than unbounded work for one line.
inline constexpr std::size_t kMaxProfileLevels = 1024;

/// The longest request line answered (1 MiB; a 1024-level profile
/// request is ~30 kB).  A longer line is refused before it is parsed --
/// one error response with a null id -- and run_batch and the serve
/// listener keep at most this many bytes of it (plus one) in memory.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

/// True for a line that gets no response: only spaces, tabs and CRs,
/// and not over-long (a line longer than kMaxRequestLineBytes is
/// refused, whatever its bytes).
[[nodiscard]] inline bool is_blank_request_line(std::string_view line) {
  return line.size() <= kMaxRequestLineBytes &&
         line.find_first_not_of(" \t\r") == std::string_view::npos;
}

/// One parsed request line: the echoed id, the effective scenario
/// (scheduler override folded in), canonical options, and the cache key
/// they hash to.
struct ParsedRequestLine {
  /// The "id" as the response writes it: its compact JSON bytes
  /// (json::Node::dump -- a duplicated object key keeps its first
  /// position with its last value), "null" when absent.
  std::string id = "null";
  e2e::Scenario scenario;  ///< effective (scheduler override folded in)
  SolveOptions options;    ///< canonical (scheduler cleared)
  /// Non-empty for profile requests: the d(epsilon) grid to solve,
  /// validated at parse time (each level in (0, 1), at most
  /// kMaxProfileLevels of them).
  std::vector<double> epsilons;
  std::string key;  ///< io::solve_cache_key / profile_cache_key
  /// fnv1a64(key), taken once at parse: the serve shard and the cache
  /// entry's file name both come from it.
  std::uint64_t key_hash = 0;

  [[nodiscard]] bool is_profile() const noexcept { return !epsilons.empty(); }
};

/// Parses one JSONL request line ({"schema", "scenario", "options"?,
/// "epsilons"?, "id"?}) through the flat reader; the echoed "id" is
/// kept as its written bytes.  @throws on an over-long line (longer than
/// kMaxRequestLineBytes, checked before any parse), malformed JSON,
/// wrong schema, or undecodable payloads; when the document carried a
/// readable "id", the exception is PartialRequestError so error
/// responses can still echo it.
[[nodiscard]] ParsedRequestLine parse_request_line(
    const std::string& line, e2e::Method default_method);

/// A profile request's "epsilons" grid under the request rules: an
/// array of at most kMaxProfileLevels levels, each in (0, 1), not
/// empty.  @throws CodecError / json::TypeError otherwise.
[[nodiscard]] std::vector<double> decode_profile_epsilons(json::Node eps);

/// A request that failed to parse *after* its "id" was read: carries
/// the id's written bytes (as ParsedRequestLine::id) so the error
/// response can echo it.
struct PartialRequestError : std::runtime_error {
  PartialRequestError(const std::string& what, std::string id_in)
      : std::runtime_error(what), id(std::move(id_in)) {}
  std::string id;
};

/// Stable wire name of a lookup outcome ("hit"/"miss"/"stale"/"corrupt").
[[nodiscard]] const char* cache_lookup_name(CacheLookup outcome);

/// One request's classified answer: the scalar bound or the whole
/// d(epsilon) profile, whichever the request asked for, with its
/// canonical bytes.
struct Answer {
  std::variant<e2e::BoundResult, e2e::DelayProfile> payload;
  /// append_json of `payload`, made once: written by solve_request
  /// right after the solve (run_batch writes a solved answer's bytes in
  /// input order, just before its store and its line), then stored and
  /// answered as they are; or taken by lookup_answer from the cache
  /// entry it read.  The response
  /// writers add these bytes without encoding the payload again, so an
  /// Answer built by hand must set them.
  std::string payload_json;
  bool ok = true;     ///< false when the scenario failed to validate or
                      ///< the solve threw
  std::string error;  ///< the failure message when !ok
};

/// Solves one parsed request through deltanc::classified_solve
/// (e2e/solver.h), the rule a sweep point takes too; run_batch and the
/// serve workers both call it, so both paths answer byte-identically.
/// A failure is still an answer: the classified +inf bound (on every
/// level of a profile request), so the response stays ok=true with
/// per-result diagnostics.
[[nodiscard]] Answer solve_request(const deltanc::Solver& solver,
                                   const ParsedRequestLine& line);

/// Looks `line.key` up in `cache` as an entry of the request's kind; a
/// hit is decoded straight into `answer`, and its payload bytes become
/// `answer.payload_json` (ResultCache::lookup with the key hash).
[[nodiscard]] CacheLookup lookup_answer(ResultCache& cache,
                                        const ParsedRequestLine& line,
                                        Answer& answer);

/// Stores `answer.payload_json` under `line.key`
/// (ResultCache::try_store_json: a failed write is counted, never
/// thrown).
bool try_store_answer(ResultCache& cache, const ParsedRequestLine& line,
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

/// Answer flavor: dispatches to the payload's overload; a payload the
/// warning changed has its payload_json written again.
void apply_cache_outcome(Answer& answer, CacheLookup outcome,
                         const std::string& key);

/// One written response line, without its trailing newline.  `dump()`
/// hands out the bytes, so a caller reads it like a JSON document's
/// compact dump.
struct ResponseLine {
  std::string text;
  [[nodiscard]] const std::string& dump() const noexcept { return text; }
};

// The response writers below take the id as the bytes to echo
// (ParsedRequestLine::id, PartialRequestError::id, or "null") and
// append them verbatim.

/// The solved/served response line ({"schema", "id", "ok": true,
/// ["cache"], "result"}); `with_cache_tag` mirrors "a ResultCache is
/// attached".
[[nodiscard]] ResponseLine make_ok_response(std::string_view id,
                                            bool with_cache_tag,
                                            CacheLookup outcome,
                                            const e2e::BoundResult& result);

/// The profile response line ({"schema", "id", "ok": true, ["cache"],
/// "profile"}) -- same layout as make_ok_response with the payload under
/// "profile".
[[nodiscard]] ResponseLine make_ok_profile_response(
    std::string_view id, bool with_cache_tag, CacheLookup outcome,
    const e2e::DelayProfile& profile);

/// The response line of an answer: "result" or "profile" by kind, with
/// `answer.payload_json` as the payload's bytes.
[[nodiscard]] ResponseLine make_ok_response(std::string_view id,
                                            bool with_cache_tag,
                                            CacheLookup outcome,
                                            const Answer& answer);

/// The error response line ({"schema", "id", "ok": false, "error",
/// ["kind"]}); `kind` (diag::solve_error_name) is emitted by the serve
/// layer for classified service failures (timeout/overload) and omitted
/// (kNone) for plain parse errors, matching run_batch.
[[nodiscard]] ResponseLine make_error_response(
    std::string_view id, const std::string& error,
    diag::SolveErrorKind kind = diag::SolveErrorKind::kNone);

}  // namespace deltanc::io
