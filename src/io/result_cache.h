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
  /// The one body behind lookup/lookup_profile: reads and classifies the
  /// entry for `key`, fills `payload` only on kHit, counts the outcome.
  template <typename Payload>
  [[nodiscard]] CacheLookup lookup_entry(const std::string& key,
                                         Payload& payload);
  /// The one body behind store/store_profile: writes {"schema",
  /// "version", "key", <payload field>: payload} via atomic tmp + rename.
  template <typename Payload>
  void store_entry(const std::string& key, const Payload& payload);
  /// The one body behind try_store/try_store_profile: fault injection,
  /// then a non-throwing store_entry.
  template <typename Payload>
  bool try_store_entry(const std::string& key,
                       const Payload& payload) noexcept;

  std::filesystem::path dir_;
  CacheStats stats_;
  int injected_store_failures_ = 0;
};

}  // namespace deltanc::io
