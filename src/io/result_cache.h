// Content-addressed persistent result cache for solved delay bounds.
//
// Keying: entries are addressed by the canonical cache key of
// io::solve_cache_key (the written compact JSON of the effective
// scenario + solve options) hashed with 64-bit FNV-1a into the file name
// `<16 hex digits>.json` under the cache directory.  The full key string
// is stored *inside* each entry and compared on lookup, so a hash
// collision degrades to a miss, never to a wrong answer.
//
// Versioning: each entry records the library version
// (DELTANC_VERSION_STRING) and the wire schema it was written with.
// Neither is hashed into the key: a lookup that finds an entry from
// another library or schema version classifies it as *stale* --
// observable in CacheStats, in the batch/serve response's "cache" tag,
// and through solve_through's `outcome` -- re-solves, and overwrites,
// instead of silently missing.  That is the one staleness rule: stored
// schema or version != current => stale.  Schema-5 and older builds
// keyed differently (schema 4 lacked the "kind" discriminator, schema 5
// carried the since-retired EDF restart cap in the options), so their
// entries sit under other file names and a lookup of the same solve is
// a plain miss; the re-solve is stored under the current key and the
// old file stays on disk, unread.  No lookup can hit on them: every
// entry's stored key must equal the requested one.
//
// Profiles: delay profiles (e2e::DelayProfile) are first-class entries
// addressed by io::profile_cache_key -- a disjoint key space thanks to
// the "kind" discriminator -- with the same staleness, doctoring, and
// atomic-store semantics as scalar entries.
//
// Entry layout: one JSON document on one line,
//   {"schema":7,"version":"<library>","key":"<canonical key>",
//    "digest":"<16 hex digits>","result"|"profile":<payload>}
// where the payload is the canonical bytes of append_json and "digest"
// is digest64 of exactly those bytes.  A hit still parses and decodes
// the payload, and hands its stored bytes on (the response writers add
// them as they are) once the digest matches.  A mismatch is kCorrupt,
// and so is an entry without a digest: this version always writes one,
// so its absence is a hand edit (older versions' entries are stale).
// The stored key is compared as written, with the requested key quoted
// the way the writer quotes it (json::quoted_equals), never unescaped.
//
// Durability: stores write to `<name>.tmp.<pid>` in the cache directory
// and rename(2) into place, so concurrent writers and crashes can leave
// at worst a stray tmp file, never a torn entry.  An entry that fails to
// read or decode is classified kCorrupt (surfaced by the batch layer as
// a diag::kCorruptCache warning) and is overwritten by the re-solve.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "io/codec.h"

namespace deltanc::io {

/// 64-bit FNV-1a of `text` -- the content address behind entry file
/// names.  Stable across platforms and runs (unlike std::hash).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text);

/// The entry "digest": a 64-bit hash of `bytes` read eight bytes at a
/// time (little-endian words in four lanes, so stable across platforms
/// and runs).  Each step is a bijection of a lane's state for a fixed
/// word and injective in the word, so any change confined to one
/// aligned 8-byte word -- a flipped digit, say -- always changes the
/// digest.
[[nodiscard]] std::uint64_t digest64(std::string_view bytes) noexcept;

/// Outcome of one ResultCache::lookup.
enum class CacheLookup {
  kHit,      ///< entry present, same key, same schema + library version
  kMiss,     ///< no entry (or a hash collision with a different key)
  kStale,    ///< entry from another schema or library version
  kCorrupt,  ///< entry file exists but is unreadable or undecodable
};

/// Running totals of one ResultCache's traffic.
struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t stale = 0;
  std::int64_t corrupt = 0;
  std::int64_t stores = 0;
  /// Stores that could not be written (read-only directory, full disk,
  /// or an injected fault): the caller solved through and kept serving.
  std::int64_t store_failures = 0;

  [[nodiscard]] std::int64_t lookups() const noexcept {
    return hits + misses + stale + corrupt;
  }
  CacheStats& operator+=(const CacheStats& other) noexcept;
};

/// Filesystem-backed store of BoundResults addressed by canonical solve
/// key.  Lookup/store are safe to call from one thread at a time per
/// ResultCache object; distinct processes sharing a directory are safe
/// against each other thanks to the atomic rename stores.
class ResultCache {
 public:
  /// Opens (and creates if needed) the cache directory.
  /// @throws std::runtime_error when the directory cannot be created.
  explicit ResultCache(std::filesystem::path dir);

  /// The shard owning `key` when the keyspace is split `shard_count`
  /// ways: contiguous ranges of the top byte of the FNV-1a hash (the
  /// first two hex digits of the entry file name), so shard i owns a
  /// prefix range of the directory listing.
  [[nodiscard]] static int shard_of(std::string_view key,
                                    int shard_count) noexcept;
  /// The same, from the key's fnv1a64 hash (ParsedRequestLine::key_hash).
  [[nodiscard]] static int shard_of(std::uint64_t key_hash,
                                    int shard_count) noexcept;

  /// The directory from DELTANC_CACHE_DIR, or `fallback` when the
  /// variable is unset or empty.
  [[nodiscard]] static std::filesystem::path directory_from_env(
      std::filesystem::path fallback);

  [[nodiscard]] const std::filesystem::path& directory() const noexcept {
    return dir_;
  }

  /// Entry file path for a canonical key (exposed for tests that doctor
  /// entries on disk).
  [[nodiscard]] std::filesystem::path entry_path(std::string_view key) const;

  /// Looks up `key`; fills `result` only on kHit.  Every outcome bumps
  /// the matching CacheStats counter.
  [[nodiscard]] CacheLookup lookup(const std::string& key,
                                   e2e::BoundResult& result);

  /// Looks up the solve described by (scenario, options): the key-level
  /// lookup of io::solve_cache_key(sc, options).  Fills `result` only on
  /// kHit.
  [[nodiscard]] CacheLookup lookup(const e2e::Scenario& sc,
                                   const SolveOptions& options,
                                   e2e::BoundResult& result);

  /// Looks up a delay-profile entry by canonical profile key; fills
  /// `profile` only on kHit.
  [[nodiscard]] CacheLookup lookup_profile(const std::string& key,
                                           e2e::DelayProfile& profile);

  /// The lookups behind io::lookup_answer: `key_hash` is fnv1a64(key),
  /// and on kHit `payload_json` also receives the payload's canonical
  /// bytes -- the stored ones, which the digest vouched for.
  [[nodiscard]] CacheLookup lookup(const std::string& key,
                                   std::uint64_t key_hash,
                                   e2e::BoundResult& result,
                                   std::string& payload_json);
  [[nodiscard]] CacheLookup lookup_profile(const std::string& key,
                                           std::uint64_t key_hash,
                                           e2e::DelayProfile& profile,
                                           std::string& payload_json);

  /// Stores (overwriting any previous entry -- including stale and
  /// corrupt ones) via atomic tmp + rename.
  /// @throws std::runtime_error when the entry cannot be written.
  void store(const std::string& key, const e2e::BoundResult& result);

  /// Non-throwing store: a failed write (read-only directory, full
  /// disk, or a fail_next_stores fault) bumps
  /// CacheStats::store_failures and returns false so callers degrade to
  /// solve-through instead of aborting mid-batch.
  bool try_store(const std::string& key,
                 const e2e::BoundResult& result) noexcept;

  /// Profile counterparts of store/try_store: same atomic tmp + rename,
  /// same fault injection, entry payload under "profile" instead of
  /// "result".
  void store_profile(const std::string& key, const e2e::DelayProfile& profile);
  bool try_store_profile(const std::string& key,
                         const e2e::DelayProfile& profile) noexcept;

  /// The store behind io::try_store_answer: `payload_json` must be the
  /// bytes append_json wrote for the payload (io::Answer::payload_json),
  /// `field` its payload_field, and `key_hash` fnv1a64(key).  The bytes
  /// go into the entry as they are, with their digest.
  bool try_store_json(const std::string& key, std::uint64_t key_hash,
                      std::string_view field,
                      std::string_view payload_json) noexcept;

  /// Deterministic fault injection: the next `n` try_store calls fail
  /// (counted as store_failures) without touching the disk -- a
  /// full-disk simulation for tests and serve::FaultPlan.
  void fail_next_stores(int n) noexcept { injected_store_failures_ += n; }

  /// Convenience: lookup by (scenario, options); on anything but a hit,
  /// solves via `solve` and stores the result.  How the answer was
  /// obtained is reported through `outcome` and CacheStats, never in
  /// the result itself.
  template <typename Solve>
  e2e::BoundResult solve_through(const e2e::Scenario& sc,
                                 const SolveOptions& options, Solve&& solve,
                                 CacheLookup* outcome = nullptr) {
    const std::string key = solve_cache_key(sc, options);
    e2e::BoundResult result;
    const CacheLookup found = lookup(key, result);
    if (outcome != nullptr) *outcome = found;
    if (found == CacheLookup::kHit) return result;
    result = solve();
    store(key, result);
    return result;
  }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = CacheStats{}; }

 private:
  /// The entry file's name under the directory, from the key's
  /// fnv1a64 hash: a plain string, which every lookup opens.
  [[nodiscard]] std::string entry_file(std::uint64_t key_hash) const;
  /// The one body behind the lookups: reads and classifies the entry
  /// for `key`, fills `payload` (and `payload_json` when given) only on
  /// kHit, counts the outcome.
  template <typename Payload>
  [[nodiscard]] CacheLookup lookup_entry(const std::string& key,
                                         std::uint64_t key_hash,
                                         Payload& payload,
                                         std::string* payload_json);
  /// The one body behind the stores: writes {"schema", "version", "key",
  /// "digest", <field>: payload_json} via atomic tmp + rename.
  void store_entry(const std::string& key, std::uint64_t key_hash,
                   std::string_view field, std::string_view payload_json);
  /// The one body behind try_store/try_store_profile: writes the
  /// payload, then try_store_json.
  template <typename Payload>
  bool try_store_payload(const std::string& key,
                         const Payload& payload) noexcept;

  std::filesystem::path dir_;
  std::string prefix_;  ///< dir_ with a trailing separator
  CacheStats stats_;
  int injected_store_failures_ = 0;
};

}  // namespace deltanc::io
