#include "io/result_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <system_error>

#include "deltanc/version.h"

namespace deltanc::io {

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t digest64(std::string_view bytes) noexcept {
  // Odd, so multiplying by it is a bijection of the 64-bit words.
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  // One step: a bijection of the state for a fixed word, injective in
  // the word for a fixed state.
  const auto step = [](std::uint64_t state, std::uint64_t word) {
    return (std::rotl(state, 23) ^ word) * kMul;
  };
  const auto load = [](const char* p) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    return word;
  };
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  const std::uint64_t seed = 0x243f6a8885a308d3ull ^ (n * kMul);
  // Four lanes over 32-byte blocks, so the multiplies overlap; word i
  // of a block goes to lane i.  Folding the lanes with the same step
  // keeps every word's path through bijections.
  std::uint64_t lane[4] = {seed, seed + 1, seed + 2, seed + 3};
  for (; n >= 32; p += 32, n -= 32) {
    for (int i = 0; i < 4; ++i) lane[i] = step(lane[i], load(p + 8 * i));
  }
  std::uint64_t h = lane[0];
  for (int i = 1; i < 4; ++i) h = step(h, lane[i]);
  for (; n >= 8; p += 8, n -= 8) h = step(h, load(p));
  if (n > 0) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < n; ++i) {
      word |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    }
    h = step(h, word);
  }
  // MurmurHash3's finalizer: a bijection that spreads every bit.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

CacheStats& CacheStats::operator+=(const CacheStats& other) noexcept {
  hits += other.hits;
  misses += other.misses;
  stale += other.stale;
  corrupt += other.corrupt;
  stores += other.stores;
  store_failures += other.store_failures;
  return *this;
}

ResultCache::ResultCache(std::filesystem::path dir)
    : dir_(std::move(dir)), prefix_((dir_ / "").native()) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("result cache: cannot create directory " +
                             dir_.string() +
                             (ec ? ": " + ec.message() : std::string()));
  }
}

int ResultCache::shard_of(std::string_view key, int shard_count) noexcept {
  return shard_of(fnv1a64(key), shard_count);
}

int ResultCache::shard_of(std::uint64_t key_hash, int shard_count) noexcept {
  if (shard_count <= 1) return 0;
  // Top byte of the hash = the first two hex digits of the entry file
  // name, so each shard owns a contiguous *prefix* range of the
  // directory listing.
  const std::uint64_t prefix = key_hash >> 56;
  return static_cast<int>(prefix * static_cast<std::uint64_t>(shard_count) /
                          256);
}

std::filesystem::path ResultCache::directory_from_env(
    std::filesystem::path fallback) {
  const char* env = std::getenv("DELTANC_CACHE_DIR");
  if (env != nullptr && *env != '\0') return std::filesystem::path(env);
  return fallback;
}

namespace {

/// `v` as 16 lowercase hex digits, written by hand: this runs on every
/// lookup and store.
std::array<char, 16> hex16(std::uint64_t v) noexcept {
  static constexpr char kHex[] = "0123456789abcdef";
  std::array<char, 16> out;
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = kHex[v & 0xF];
  return out;
}

std::string_view view(const std::array<char, 16>& hex) noexcept {
  return {hex.data(), hex.size()};
}

}  // namespace

std::filesystem::path ResultCache::entry_path(std::string_view key) const {
  return entry_file(fnv1a64(key));
}

std::string ResultCache::entry_file(std::uint64_t key_hash) const {
  // "<dir>/<16 lowercase hex digits of the FNV-1a hash>.json", one
  // string: a std::filesystem::path would parse its components.
  std::string file;
  file.reserve(prefix_.size() + 21);
  file += prefix_;
  file += view(hex16(key_hash));
  file += ".json";
  return file;
}

namespace {

// Decoder overloads: with payload_field, the only places the two entry
// kinds differ.
void decode_payload(json::Node v, e2e::BoundResult& result) {
  result = decode_bound_result(v);
}
void decode_payload(json::Node v, e2e::DelayProfile& profile) {
  profile = decode_delay_profile(v);
}

/// Closes the descriptor it holds.
struct OpenFile {
  explicit OpenFile(const std::string& path)
      : fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~OpenFile() {
    if (fd >= 0) ::close(fd);
  }
  OpenFile(const OpenFile&) = delete;
  OpenFile& operator=(const OpenFile&) = delete;
  int fd;
};

/// Reads all of `fd` into `text`, a chunk at a time until a short read
/// (the end of a regular file): one read call for any entry up to
/// 16 KiB.  False on a read error (e.g. EISDIR when a directory sits
/// where the entry should be).
bool read_all(int fd, std::string& text) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    text.append(chunk, static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < sizeof chunk) return true;
  }
}

/// Classifies the entry at `path` against `key`; decodes the payload
/// straight into `payload` and, when `payload_json` is given, sets it to
/// the payload's canonical bytes (only on kHit).
template <typename Payload>
CacheLookup classify_entry(const std::string& path,
                           const std::string& key, Payload& payload,
                           std::string* payload_json) {
  std::string text;
  {
    const OpenFile file(path);
    if (file.fd < 0) return CacheLookup::kMiss;
    if (!read_all(file.fd, text)) return CacheLookup::kCorrupt;
  }
  // Where the payload's bytes sit in `text`, once its digest matched.
  std::size_t stored_at = 0;
  std::size_t stored_size = 0;
  bool digested = false;
  try {
    const json::Document doc(text);
    const json::Node entry = doc.root();
    // A non-object has no schema: stale, like any entry this build did
    // not write.
    if (!entry.is_object()) return CacheLookup::kStale;
    const std::array<std::string_view, 5> names = {
        "schema", "version", "key", "digest", payload_field(payload)};
    std::array<json::Node, names.size()> f{};
    entry.lookup(names, f);
    // Schema or library version drift makes the entry stale, not corrupt:
    // the bytes are fine, the producer was just a different build.
    if (!f[0] || !f[0].is_number() || f[0].as_number() != kSchemaVersion ||
        json::required(f[1], names[1]).as_string() != DELTANC_VERSION_STRING) {
      return CacheLookup::kStale;
    }
    // The stored full key disambiguates FNV collisions: a different key
    // in the same slot is somebody else's entry, i.e. a miss.  It is
    // compared as written (quoted by the same writer), never unescaped.
    const json::Node stored_key = json::required(f[2], names[2]);
    if (!stored_key.is_string()) return CacheLookup::kCorrupt;
    if (!json::quoted_equals(stored_key.raw(), key)) return CacheLookup::kMiss;
    const json::Node body = json::required(f[4], names[4]);
    if (f[3]) {
      // The digest vouches for the payload's bytes, so a hit hands them
      // on as they are; a mismatch is bit rot.
      const std::string_view bytes = body.raw();
      if (!f[3].is_string() ||
          f[3].as_string() != view(hex16(digest64(bytes)))) {
        return CacheLookup::kCorrupt;
      }
      stored_at = static_cast<std::size_t>(bytes.data() - text.data());
      stored_size = bytes.size();
      digested = true;
    }
    decode_payload(body, payload);
  } catch (const json::ParseError&) {
    return CacheLookup::kCorrupt;
  } catch (const json::TypeError&) {
    return CacheLookup::kCorrupt;
  } catch (const SchemaError&) {
    // A decoder rejected an enum name or layout this build does not know
    // -- a different producer, not bit rot.
    return CacheLookup::kStale;
  } catch (const CodecError&) {
    return CacheLookup::kCorrupt;
  }
  if (payload_json != nullptr) {
    if (digested) {
      // The read buffer becomes the payload's bytes: no copy.
      text.resize(stored_at + stored_size);
      text.erase(0, stored_at);
      *payload_json = std::move(text);
    } else {
      // An entry from before the digest: written once, here.
      payload_json->clear();
      append_json(*payload_json, payload);
    }
  }
  return CacheLookup::kHit;
}

}  // namespace

template <typename Payload>
CacheLookup ResultCache::lookup_entry(const std::string& key,
                                      std::uint64_t key_hash,
                                      Payload& payload,
                                      std::string* payload_json) {
  const CacheLookup outcome =
      classify_entry(entry_file(key_hash), key, payload, payload_json);
  switch (outcome) {
    case CacheLookup::kHit:
      ++stats_.hits;
      break;
    case CacheLookup::kMiss:
      ++stats_.misses;
      break;
    case CacheLookup::kStale:
      ++stats_.stale;
      break;
    case CacheLookup::kCorrupt:
      ++stats_.corrupt;
      break;
  }
  return outcome;
}

CacheLookup ResultCache::lookup(const std::string& key,
                                e2e::BoundResult& result) {
  return lookup_entry(key, fnv1a64(key), result, nullptr);
}

CacheLookup ResultCache::lookup(const e2e::Scenario& sc,
                                const SolveOptions& options,
                                e2e::BoundResult& result) {
  const std::string key = solve_cache_key(sc, options);
  return lookup_entry(key, fnv1a64(key), result, nullptr);
}

CacheLookup ResultCache::lookup_profile(const std::string& key,
                                        e2e::DelayProfile& profile) {
  return lookup_entry(key, fnv1a64(key), profile, nullptr);
}

CacheLookup ResultCache::lookup(const std::string& key,
                                std::uint64_t key_hash,
                                e2e::BoundResult& result,
                                std::string& payload_json) {
  return lookup_entry(key, key_hash, result, &payload_json);
}

CacheLookup ResultCache::lookup_profile(const std::string& key,
                                        std::uint64_t key_hash,
                                        e2e::DelayProfile& profile,
                                        std::string& payload_json) {
  return lookup_entry(key, key_hash, profile, &payload_json);
}

void ResultCache::store_entry(const std::string& key, std::uint64_t key_hash,
                              std::string_view field,
                              std::string_view payload_json) {
  // {"schema", "version", "key", "digest", "result"|"profile"}, one line.
  std::string entry = "{\"schema\":";
  json::append_number(entry, kSchemaVersion);
  entry += ",\"version\":";
  json::append_quoted(entry, DELTANC_VERSION_STRING);
  entry += ",\"key\":";
  json::append_quoted(entry, key);
  entry += ",\"digest\":\"";
  entry += view(hex16(digest64(payload_json)));
  entry += "\",\"";
  entry += field;
  entry += "\":";
  entry += payload_json;
  entry += "}\n";

  const std::filesystem::path path = entry_file(key_hash);
  std::filesystem::path tmp = path;
  tmp += ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << entry;
    if (!out.good()) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error("result cache: cannot write " + tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("result cache: cannot publish " + path.string());
  }
  ++stats_.stores;
}

bool ResultCache::try_store_json(const std::string& key,
                                 std::uint64_t key_hash,
                                 std::string_view field,
                                 std::string_view payload_json) noexcept {
  if (injected_store_failures_ > 0) {
    --injected_store_failures_;
    ++stats_.store_failures;
    return false;
  }
  try {
    store_entry(key, key_hash, field, payload_json);
    return true;
  } catch (...) {
    ++stats_.store_failures;
    return false;
  }
}

template <typename Payload>
bool ResultCache::try_store_payload(const std::string& key,
                                    const Payload& payload) noexcept {
  std::string payload_json;
  try {
    append_json(payload_json, payload);
  } catch (...) {
    ++stats_.store_failures;
    return false;
  }
  return try_store_json(key, fnv1a64(key), payload_field(payload),
                        payload_json);
}

void ResultCache::store(const std::string& key,
                        const e2e::BoundResult& result) {
  std::string payload_json;
  append_json(payload_json, result);
  store_entry(key, fnv1a64(key), payload_field(result), payload_json);
}

void ResultCache::store_profile(const std::string& key,
                                const e2e::DelayProfile& profile) {
  std::string payload_json;
  append_json(payload_json, profile);
  store_entry(key, fnv1a64(key), payload_field(profile), payload_json);
}

bool ResultCache::try_store(const std::string& key,
                            const e2e::BoundResult& result) noexcept {
  return try_store_payload(key, result);
}

bool ResultCache::try_store_profile(const std::string& key,
                                    const e2e::DelayProfile& profile) noexcept {
  return try_store_payload(key, profile);
}

}  // namespace deltanc::io
