// Schema-versioned JSON codec for the library's wire value types:
// scenarios, solve options, solve results (with their stats and
// diagnostics), and delay profiles round-trip through io::json::Value
// losslessly -- doubles bit-exactly (including +/-inf and NaN), enums by
// their stable string names.  These are exactly what the batch and serve
// protocols and the persistent result cache carry; sweep grids and
// reports have no wire form (their CSV is the machine output).
//
// Versioning: every top-level document (cache entry, batch
// request/response) carries a "schema" field equal to kSchemaVersion.
// Decoders reject documents with a different schema (SchemaError),
// which is what lets the persistent cache invalidate itself
// automatically when the wire format changes; nested values (a
// scenario inside a request) carry no redundant schema field.
//
// Canonicalization: encoders emit fields in a fixed documented order and
// the compact dump() is byte-stable for a given input, so
// solve_cache_key() -- the compact dump of (kind, scenario, solve
// options) -- is a canonical content hash input.  The library version is
// deliberately NOT part of the key: the cache stores it per entry and
// classifies version mismatches as *stale* (observable, re-solved,
// overwritten) rather than burying them as silent misses.
#pragma once

#include <span>

#include "e2e/solver.h"
#include "io/json.h"

namespace deltanc::io {

/// Version of the wire format produced by the encoders below.  Bump on
/// any change that alters the meaning or layout of encoded documents;
/// cached results from other schema versions are re-solved.
/// History: 1 = scheduler as bare kind name + top-level scenario "edf"
/// object; 2 = scheduler as a full SchedulerSpec object {kind, delta,
/// edf} (the "edf" factors moved inside it); 3 = scheduler object gains
/// the "params" class-weight array (curve-backed kinds gps/drr/sced);
/// 4 = solve options gain "warm_start"; 5 = cache keys gain a "kind"
/// discriminator ("solve" / "profile") and delay-profile documents
/// (epsilons, levels, stats with the profile_* counters) join the wire
/// format; 6 = stats carry deterministic counters only (the two
/// wall-clock timings and the three cache-outcome counters are gone)
/// and solve options lose the EDF restart cap (the damped-restart
/// schedule always runs in full), so every schema-5 cache key names
/// another file.
inline constexpr int kSchemaVersion = 6;

/// A structurally valid JSON document that does not decode as the
/// requested type (missing/mistyped fields, unknown enum names, bad
/// schema).  SchemaError is the "wrong schema version" special case.
struct CodecError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
struct SchemaError : CodecError {
  using CodecError::CodecError;
};

// ----- doubles (bit-exact, non-finite-safe) ------------------------------

/// Finite doubles encode as JSON numbers (17 significant digits: parses
/// back to the identical bits); +/-inf and NaN encode as the strings
/// "inf" / "-inf" / "nan".
[[nodiscard]] json::Value encode_double(double v);
/// Accepts numbers plus the non-finite strings above; also accepts any
/// strtod-parseable string (e.g. C99 hexfloat "0x1.6p+4") so hand-written
/// documents can pin exact bits.  @throws CodecError otherwise.
[[nodiscard]] double decode_double(const json::Value& v);

// ----- value types -------------------------------------------------------

// Field orders (canonical):
//   Scenario:   capacity, hops, source{peak_kb, p11, p22}, n_through,
//               n_cross, epsilon,
//               scheduler{kind, delta, edf{own_factor, cross_factor}}
//   SolveStats: optimize_evals, eb_evals, sigma_evals, edf_iterations,
//               edf_converged, retries, fallbacks, batched_evals,
//               warm_start_hits, brackets_reused, profile_levels,
//               profile_chain_hits (no wall-clock field: the in-memory
//               scan_ms / refine_ms are never encoded and decode as 0)
//   Diagnostics: error, message, warnings[{kind, message}]
//   BoundResult: delay_ms, gamma, s, sigma, delta, stats, diagnostics
// Decoders tolerate *absent* optional fields (stats/diagnostics default)
// but reject mistyped or unknown-enum values.

[[nodiscard]] json::Value encode_scenario(const e2e::Scenario& sc);
[[nodiscard]] e2e::Scenario decode_scenario(const json::Value& v);

[[nodiscard]] json::Value encode_solve_stats(const e2e::SolveStats& stats);
[[nodiscard]] e2e::SolveStats decode_solve_stats(const json::Value& v);

[[nodiscard]] json::Value encode_diagnostics(const diag::Diagnostics& d);
[[nodiscard]] diag::Diagnostics decode_diagnostics(const json::Value& v);

[[nodiscard]] json::Value encode_bound_result(const e2e::BoundResult& r);
[[nodiscard]] e2e::BoundResult decode_bound_result(const json::Value& v);

/// Delay profile d(epsilon): canonical fields "epsilons" (array of
/// bit-exact doubles), "levels" (array of BoundResult objects, same
/// length, levels[i] solves epsilons[i]) and "stats" (the aggregate,
/// including profile_levels / profile_chain_hits).  The decoder rejects
/// mismatched epsilons/levels lengths.
[[nodiscard]] json::Value encode_delay_profile(const e2e::DelayProfile& p);
[[nodiscard]] e2e::DelayProfile decode_delay_profile(const json::Value& v);

// ----- solve options and the cache key -----------------------------------

/// Canonical fields: method, scheduler (or null), delta (or null),
/// warm_start.
[[nodiscard]] json::Value encode_solve_options(const SolveOptions& options);
[[nodiscard]] SolveOptions decode_solve_options(const json::Value& v);

/// The canonical cache key for "this scenario solved with these
/// options": the compact dump of {"kind": "solve", "scenario",
/// "options"} with the scheduler override already folded into the
/// scenario.  Two solves get the same key iff the codec cannot
/// distinguish their inputs.  The "kind" discriminator (since v5) keeps
/// scalar and profile entries in disjoint key spaces.  The schema
/// version is deliberately NOT part of the key (since v2): the cache
/// stores it per entry and classifies mismatches as *stale*; a schema
/// inside the key would silently change every file name on a bump and
/// bury old entries as misses.
[[nodiscard]] std::string solve_cache_key(const e2e::Scenario& sc,
                                          const SolveOptions& options);

/// The canonical cache key for "this scenario's delay profile over this
/// epsilon grid under these options": the compact dump of {"kind":
/// "profile", "scenario", "options", "epsilons"} with the scenario's own
/// epsilon canonicalized to the first grid level (a profile solves the
/// grid, never the scenario's scalar epsilon, so two scenarios differing
/// only there must share the entry).  Epsilons keep their order: the
/// levels are positional.
[[nodiscard]] std::string profile_cache_key(const e2e::Scenario& sc,
                                            std::span<const double> epsilons,
                                            const SolveOptions& options);

// ----- helpers shared by the cache / batch layers ------------------------

/// @throws SchemaError unless v is an object whose "schema" equals
/// kSchemaVersion.
void require_schema(const json::Value& v);

/// Scheduler identity <-> JSON.  Encodes the full spec as an object
/// {"kind": "<name>", "delta": <double>, "edf": {"own_factor",
/// "cross_factor"}, "params": [<w>, ...]}; every field is always emitted
/// so the compact dump is byte-stable.  The decoder also accepts the
/// canonical name strings ("fifo", ..., "delta:<value>", "gps:1,2") for
/// hand-written documents and the schema-1/2 object forms (absent
/// "params" means the default equal two-class split).  An unknown kind
/// name throws SchemaError -- a newer producer's registry, not
/// corruption -- so the cache classifies such entries as stale.
[[nodiscard]] json::Value encode_scheduler(const sched::SchedulerSpec& s);
[[nodiscard]] sched::SchedulerSpec decode_scheduler(const json::Value& v);

[[nodiscard]] json::Value encode_method(e2e::Method m);
[[nodiscard]] e2e::Method decode_method(const json::Value& v);

}  // namespace deltanc::io
