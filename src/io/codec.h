// Schema-versioned JSON codec for the library's wire value types:
// scenarios, solve options, solve results (with their stats and
// diagnostics), and delay profiles round-trip losslessly -- doubles
// bit-exactly (including +/-inf and NaN), enums by their stable string
// names.  One writer (append_json) emits every type straight to bytes,
// and one decoder set reads every type from a json::Node of the flat
// reader (json::Document).  These are exactly what the batch and serve
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
// Canonicalization: the writer emits fields in a fixed documented order
// and its bytes are stable for a given input, so solve_cache_key() --
// the written (kind, scenario, solve options) -- is a canonical content
// hash input.  The library version is deliberately NOT part of the key:
// the cache stores it per entry and classifies version mismatches as
// *stale* (observable, re-solved, overwritten) rather than burying them
// as silent misses.
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
/// another file; 7 = numbers are written in their shortest round-trip
/// form (0.989, not 0.98899999999999999; same doubles, other bytes, so
/// most keys name another file) and stats "eb_evals" counts every eb(s)
/// call (it counted distinct s values), so a schema-6 entry whose key
/// bytes did not change is stale, not a hit.
inline constexpr int kSchemaVersion = 7;

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

/// Finite doubles encode as JSON numbers (shortest round-trip text:
/// parses back to the identical bits); +/-inf and NaN encode as the
/// strings "inf" / "-inf" / "nan".
[[nodiscard]] json::Value encode_double(double v);
/// Accepts numbers plus the non-finite strings above; also accepts a
/// decimal string (parsed by std::from_chars, locale-independent) or a
/// C99 hexfloat string ("0x1.6p+4", optionally "-"-signed before the
/// prefix only) so hand-written documents can pin exact bits.
/// @throws CodecError otherwise.
[[nodiscard]] double decode_double(json::Node v);

// ----- value types -------------------------------------------------------

// The field orders live in the writers below, the one place that emits
// them.  Decoders read each object's fields in one pass
// (json::Node::lookup); they tolerate *absent* optional fields (stats/
// diagnostics default), any member order and duplicate members (the
// last one wins), but reject mistyped or unknown-enum values with the
// JSON layer's TypeError or a CodecError.

[[nodiscard]] e2e::Scenario decode_scenario(json::Node v);
[[nodiscard]] e2e::SolveStats decode_solve_stats(json::Node v);
[[nodiscard]] diag::Diagnostics decode_diagnostics(json::Node v);
[[nodiscard]] e2e::BoundResult decode_bound_result(json::Node v);
/// Delay profile d(epsilon): the decoder rejects mismatched
/// epsilons/levels lengths.
[[nodiscard]] e2e::DelayProfile decode_delay_profile(json::Node v);

// ----- the writer --------------------------------------------------------
// Appends the canonical compact JSON of a value straight to `out`, with
// json::append_number / append_quoted as its only formatters: the bytes
// of every response line, cache entry and cache key.  The field orders
// live in these functions alone (tests/data/wire_requests.jsonl and
// wire_responses.jsonl show them):
//   Scenario:      capacity, hops, source{peak_kb, p11, p22}, n_through,
//                  n_cross, epsilon, scheduler
//   SchedulerSpec: kind, delta, edf{own_factor, cross_factor}, params
//   SolveOptions:  method, scheduler (or null), delta (or null),
//                  warm_start
// Every field is always written, so the bytes are stable.  SolveStats
// carry the deterministic counters only: the in-memory scan_ms /
// refine_ms are never written and decode as 0.

void append_json(std::string& out, const e2e::SolveStats& stats);
void append_json(std::string& out, const diag::Diagnostics& d);
void append_json(std::string& out, const e2e::BoundResult& r);
void append_json(std::string& out, const e2e::DelayProfile& p);
void append_json(std::string& out, const sched::SchedulerSpec& s);
void append_json(std::string& out, const e2e::Scenario& sc);
void append_json(std::string& out, const SolveOptions& options);

/// The written scenario / options read back as a json::Value, for
/// callers that assemble request documents (--emit-batch, load
/// generators, tests).
[[nodiscard]] json::Value encode_scenario(const e2e::Scenario& sc);
[[nodiscard]] json::Value encode_solve_options(const SolveOptions& options);

/// The member a payload travels under in responses and cache entries.
[[nodiscard]] const char* payload_field(const e2e::BoundResult&) noexcept;
[[nodiscard]] const char* payload_field(const e2e::DelayProfile&) noexcept;

// ----- solve options and the cache key -----------------------------------

[[nodiscard]] SolveOptions decode_solve_options(json::Node v);

/// The canonical cache key for "this scenario solved with these
/// options": the written {"kind": "solve", "scenario",
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
/// epsilon grid under these options": the written {"kind":
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
void require_schema(json::Node v);

/// Scheduler identity from JSON: the written object {"kind": "<name>",
/// "delta", "edf": {"own_factor", "cross_factor"}, "params": [<w>, ...]},
/// the canonical name strings ("fifo", ..., "delta:<value>", "gps:1,2")
/// for hand-written documents, and the schema-1/2 object forms (absent
/// "params" means the default equal two-class split).  An unknown kind
/// name throws SchemaError -- a newer producer's registry, not
/// corruption -- so the cache classifies such entries as stale.
[[nodiscard]] sched::SchedulerSpec decode_scheduler(json::Node v);

}  // namespace deltanc::io
