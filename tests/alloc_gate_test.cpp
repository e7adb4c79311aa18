// Allocation gate for the answer paths: a request served from the
// cache is parsed (parse_request_line), looked up (lookup_answer) and
// written (make_ok_response); a cold miss is looked up, its solved
// payload encoded, and the entry stored (try_store_answer).  The number
// of operator new calls of each stage is deterministic for a given
// toolchain, so it is pinned here literally.  A change that moves a count updates the literal and says
// why: allocations and copies removed from this path are what made
// warm hits fast, and nothing else stops them from coming back.
//
// This binary replaces the global operator new; no other test does.
#include "e2e/solver.h"
#include "io/batch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <variant>
#include <vector>

namespace {

std::atomic<long> g_allocations{0};

}  // namespace

// Every unaligned form is replaced: a sanitizer runtime supplies its
// own array and nothrow forms, which would not reach a replaced scalar
// operator new, and would not pair with the free() below.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}

// Not inlined: GCC would otherwise see a `new` expression paired with
// free() and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace deltanc::io {
namespace {

/// operator new calls made while `fn` runs.
template <typename Fn>
long allocations_of(Fn&& fn) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// perf_micro's wire scenario.
e2e::Scenario wire_scenario() {
  e2e::Scenario sc;
  sc.hops = 5;
  sc.n_through = 100;
  sc.n_cross = 268;
  sc.epsilon = 1e-6;
  return sc;
}

/// `levels` log-spaced violation probabilities from 1e-3 down to 1e-9.
std::vector<double> log_spaced_epsilons(int levels) {
  std::vector<double> epsilons;
  for (int i = 0; i < levels; ++i) {
    epsilons.push_back(std::exp(std::log(1e-3) +
                                (std::log(1e-9) - std::log(1e-3)) * i /
                                    (levels - 1)));
  }
  return epsilons;
}

/// One warm request line with the id written as `id_bytes`; a profile
/// request when `levels` > 0.
std::string request_line(const std::string& id_bytes, int levels) {
  SolveOptions options;
  options.warm_start = e2e::WarmStart::kWarm;
  std::string line = "{\"schema\":";
  json::append_number(line, kSchemaVersion);
  line += ",\"id\":" + id_bytes + ",\"scenario\":";
  append_json(line, wire_scenario());
  line += ",\"options\":";
  append_json(line, options);
  if (levels > 0) {
    line += ",\"epsilons\":[";
    const std::vector<double> epsilons = log_spaced_epsilons(levels);
    for (std::size_t i = 0; i < epsilons.size(); ++i) {
      if (i > 0) line += ',';
      json::append_number(line, epsilons[i]);
    }
    line += ']';
  }
  line += '}';
  return line;
}

struct StageCounts {
  long parse = 0;
  long lookup = 0;
  long write = 0;
};

/// Solves and stores the request once, then counts the allocations of
/// each stage of one warm hit on it.  The cache directory is relative
/// to the temp directory: path copies allocate by length, so an
/// absolute path would make the lookup count depend on where the temp
/// directory is.
StageCounts warm_hit_counts(const std::string& line, const char* dir_name) {
  std::filesystem::current_path(::testing::TempDir());
  const std::filesystem::path dir = dir_name;
  std::filesystem::remove_all(dir);
  ResultCache cache(dir);
  {
    const ParsedRequestLine req =
        parse_request_line(line, e2e::Method::kExactOpt);
    const Answer solved = solve_request(Solver(req.options), req);
    EXPECT_TRUE(solved.ok) << solved.error;
    EXPECT_TRUE(try_store_answer(cache, req, solved));
  }

  StageCounts counts;
  ParsedRequestLine req;
  counts.parse = allocations_of(
      [&] { req = parse_request_line(line, e2e::Method::kExactOpt); });
  Answer answer;
  CacheLookup outcome = CacheLookup::kMiss;
  counts.lookup =
      allocations_of([&] { outcome = lookup_answer(cache, req, answer); });
  EXPECT_EQ(outcome, CacheLookup::kHit);
  ResponseLine response;
  counts.write = allocations_of(
      [&] { response = make_ok_response(req.id, true, outcome, answer); });
  EXPECT_FALSE(response.text.empty());
  std::filesystem::remove_all(dir);
  return counts;
}

/// A string id longer than std::string's 15-byte inline buffer.
constexpr const char* kLongStringId = "\"request-0123456789abcdef\"";

// A hit's lookup builds the entry's file name as one string from the
// key hash the parse took (one allocation where a std::filesystem::path
// took six), unescapes nothing (the stored key is compared as written,
// so the Document's side buffer is never allocated) and hands its read
// buffer on as Answer::payload_json (no copy): the name, the read
// buffer and the slots, plus a profile's two vectors.  The response is
// the head plus those bytes in one reservation (write = 1, whatever the
// payload).
TEST(AllocationGate, WarmScalarHitWithNumericId) {
  const StageCounts c =
      warm_hit_counts(request_line("7", 0), "deltanc_alloc_scalar_num");
  EXPECT_EQ(c.parse, 3);
  EXPECT_EQ(c.lookup, 3);
  EXPECT_EQ(c.write, 1);
}

TEST(AllocationGate, WarmScalarHitWithLongStringId) {
  const StageCounts c = warm_hit_counts(request_line(kLongStringId, 0),
                                        "deltanc_alloc_scalar_str");
  // The id's bytes are written once, at parse, straight from the
  // Document (+1 over a numeric id: the written text; no Value copy).
  EXPECT_EQ(c.parse, 4);
  EXPECT_EQ(c.lookup, 3);
  EXPECT_EQ(c.write, 1);
}

TEST(AllocationGate, WarmProfileHitWithNumericId) {
  const StageCounts c =
      warm_hit_counts(request_line("7", 16), "deltanc_alloc_profile_num");
  EXPECT_EQ(c.parse, 3);
  EXPECT_EQ(c.lookup, 5);
  EXPECT_EQ(c.write, 1);
}

TEST(AllocationGate, WarmProfileHitWithLongStringId) {
  const StageCounts c = warm_hit_counts(request_line(kLongStringId, 16),
                                        "deltanc_alloc_profile_str");
  EXPECT_EQ(c.parse, 4);
  EXPECT_EQ(c.lookup, 5);
  EXPECT_EQ(c.write, 1);
}

struct MissCounts {
  long lookup = 0;
  long encode = 0;
  long store = 0;
};

/// Counts the allocations of the stages a cold miss runs around its
/// solve: the lookup that misses, the encode of the solved payload into
/// Answer::payload_json, and try_store_answer.  The parse and the solve
/// run outside the counts.  The cache directory is relative, as for
/// warm_hit_counts.
MissCounts cold_miss_counts(const std::string& line, const char* dir_name) {
  std::filesystem::current_path(::testing::TempDir());
  const std::filesystem::path dir = dir_name;
  std::filesystem::remove_all(dir);
  ResultCache cache(dir);
  const ParsedRequestLine req =
      parse_request_line(line, e2e::Method::kExactOpt);

  MissCounts counts;
  Answer answer;
  CacheLookup outcome = CacheLookup::kHit;
  counts.lookup =
      allocations_of([&] { outcome = lookup_answer(cache, req, answer); });
  EXPECT_EQ(outcome, CacheLookup::kMiss);
  const Solver solver(req.options);
  if (req.is_profile()) {
    answer.payload = solver.solve_profile(req.scenario, req.epsilons);
  } else {
    answer.payload = solver.solve(req.scenario);
  }
  counts.encode = allocations_of([&] {
    std::visit([&](const auto& p) { append_json(answer.payload_json, p); },
               answer.payload);
  });
  bool stored = false;
  counts.store =
      allocations_of([&] { stored = try_store_answer(cache, req, answer); });
  EXPECT_TRUE(stored);
  EXPECT_EQ(lookup_answer(cache, req, answer), CacheLookup::kHit);
  std::filesystem::remove_all(dir);
  return counts;
}

// A miss's lookup builds the entry's file name (one allocation, as for
// a hit) and finds no file.  The encode grows payload_json from empty,
// so its count is the string's growth steps: more for the 16 levels of
// a profile.  The store writes the entry line into one growing string,
// then publishes it through a temporary file: the paths, the file
// stream and its buffer.
TEST(AllocationGate, ColdScalarMissThatStoresAnEntry) {
  const MissCounts c =
      cold_miss_counts(request_line("7", 0), "deltanc_alloc_miss_scalar");
  EXPECT_EQ(c.lookup, 1);
  EXPECT_EQ(c.encode, 5);
  EXPECT_EQ(c.store, 17);
}

TEST(AllocationGate, ColdProfileMissThatStoresAnEntry) {
  const MissCounts c =
      cold_miss_counts(request_line("7", 16), "deltanc_alloc_miss_profile");
  EXPECT_EQ(c.lookup, 1);
  EXPECT_EQ(c.encode, 9);
  EXPECT_EQ(c.store, 19);
}

}  // namespace
}  // namespace deltanc::io
