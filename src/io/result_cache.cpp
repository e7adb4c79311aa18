#include "io/result_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdlib>
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

CacheStats& CacheStats::operator+=(const CacheStats& other) noexcept {
  hits += other.hits;
  misses += other.misses;
  stale += other.stale;
  corrupt += other.corrupt;
  stores += other.stores;
  store_failures += other.store_failures;
  return *this;
}

ResultCache::ResultCache(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("result cache: cannot create directory " +
                             dir_.string() +
                             (ec ? ": " + ec.message() : std::string()));
  }
}

int ResultCache::shard_of(std::string_view key, int shard_count) noexcept {
  if (shard_count <= 1) return 0;
  // Top byte of the hash = the first two hex digits of the entry file
  // name, so each shard owns a contiguous *prefix* range of the
  // directory listing.
  const std::uint64_t prefix = fnv1a64(key) >> 56;
  return static_cast<int>(prefix * static_cast<std::uint64_t>(shard_count) /
                          256);
}

std::filesystem::path ResultCache::directory_from_env(
    std::filesystem::path fallback) {
  const char* env = std::getenv("DELTANC_CACHE_DIR");
  if (env != nullptr && *env != '\0') return std::filesystem::path(env);
  return fallback;
}

std::filesystem::path ResultCache::entry_path(std::string_view key) const {
  // "<16 lowercase hex digits of the FNV-1a hash>.json", written by hand:
  // this runs on every lookup and store.
  static constexpr char kHex[] = "0123456789abcdef";
  char name[] = "0000000000000000.json";
  std::uint64_t hash = fnv1a64(key);
  for (int i = 15; i >= 0; --i, hash >>= 4) name[i] = kHex[hash & 0xF];
  return dir_ / std::string_view(name, sizeof name - 1);
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
  explicit OpenFile(const std::filesystem::path& path)
      : fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~OpenFile() {
    if (fd >= 0) ::close(fd);
  }
  OpenFile(const OpenFile&) = delete;
  OpenFile& operator=(const OpenFile&) = delete;
  int fd;
};

/// Reads all of `fd` into `text` with one read sized by fstat; the loop
/// only resumes a partial or interrupted read.  False on a read error
/// (e.g. EISDIR when a directory sits where the entry should be).
bool read_all(int fd, std::string& text) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) return false;
  text.resize(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < text.size()) {
    const ssize_t n = ::read(fd, text.data() + got, text.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    if (n == 0) break;  // shorter than fstat said: parse what is there
    got += static_cast<std::size_t>(n);
  }
  text.resize(got);
  return true;
}

/// Classifies the entry at `path` against `key`; decodes the payload
/// straight into `payload` (only on kHit).
template <typename Payload>
CacheLookup classify_entry(const std::filesystem::path& path,
                           const std::string& key, Payload& payload) {
  std::string text;
  {
    const OpenFile file(path);
    if (file.fd < 0) return CacheLookup::kMiss;
    if (!read_all(file.fd, text)) return CacheLookup::kCorrupt;
  }
  try {
    const json::Document doc(text);
    const json::Node entry = doc.root();
    // A non-object has no schema: stale, like any entry this build did
    // not write.
    if (!entry.is_object()) return CacheLookup::kStale;
    const std::array<std::string_view, 4> names = {
        "schema", "version", "key", payload_field(payload)};
    std::array<json::Node, names.size()> f{};
    entry.lookup(names, f);
    // Schema or library version drift makes the entry stale, not corrupt:
    // the bytes are fine, the producer was just a different build.
    if (!f[0] || !f[0].is_number() || f[0].as_number() != kSchemaVersion ||
        json::required(f[1], names[1]).as_string() != DELTANC_VERSION_STRING) {
      return CacheLookup::kStale;
    }
    // The stored full key disambiguates FNV collisions: a different key
    // in the same slot is somebody else's entry, i.e. a miss.
    if (json::required(f[2], names[2]).as_string() != key) {
      return CacheLookup::kMiss;
    }
    decode_payload(json::required(f[3], names[3]), payload);
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
  return CacheLookup::kHit;
}

}  // namespace

template <typename Payload>
CacheLookup ResultCache::lookup_entry(const std::string& key,
                                      Payload& payload) {
  const CacheLookup outcome = classify_entry(entry_path(key), key, payload);
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
  return lookup_entry(key, result);
}

CacheLookup ResultCache::lookup(const e2e::Scenario& sc,
                                const SolveOptions& options,
                                e2e::BoundResult& result) {
  return lookup_entry(solve_cache_key(sc, options), result);
}

CacheLookup ResultCache::lookup_profile(const std::string& key,
                                        e2e::DelayProfile& profile) {
  return lookup_entry(key, profile);
}

template <typename Payload>
void ResultCache::store_entry(const std::string& key,
                              const Payload& payload) {
  // {"schema", "version", "key", "result"|"profile"}, one line.
  std::string entry = "{\"schema\":";
  json::append_number(entry, kSchemaVersion);
  entry += ",\"version\":";
  json::append_quoted(entry, DELTANC_VERSION_STRING);
  entry += ",\"key\":";
  json::append_quoted(entry, key);
  entry += ",\"";
  entry += payload_field(payload);
  entry += "\":";
  append_json(entry, payload);
  entry += "}\n";

  const std::filesystem::path path = entry_path(key);
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

template <typename Payload>
bool ResultCache::try_store_entry(const std::string& key,
                                  const Payload& payload) noexcept {
  if (injected_store_failures_ > 0) {
    --injected_store_failures_;
    ++stats_.store_failures;
    return false;
  }
  try {
    store_entry(key, payload);
    return true;
  } catch (...) {
    ++stats_.store_failures;
    return false;
  }
}

void ResultCache::store(const std::string& key,
                        const e2e::BoundResult& result) {
  store_entry(key, result);
}

void ResultCache::store_profile(const std::string& key,
                                const e2e::DelayProfile& profile) {
  store_entry(key, profile);
}

bool ResultCache::try_store(const std::string& key,
                            const e2e::BoundResult& result) noexcept {
  return try_store_entry(key, result);
}

bool ResultCache::try_store_profile(const std::string& key,
                                    const e2e::DelayProfile& profile) noexcept {
  return try_store_entry(key, profile);
}

}  // namespace deltanc::io
