#include "io/batch.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/thread_pool.h"
#include "e2e/solver.h"

namespace deltanc::io {

namespace {

using Clock = std::chrono::steady_clock;

/// One input line's lifecycle through the batch.
struct Request {
  bool parsed = false;
  std::string error;       ///< parse/decode failure when !parsed
  ParsedRequestLine line;  ///< valid when parsed
  CacheLookup outcome = CacheLookup::kMiss;
  Answer answer;  ///< the cache hit or the solve
};

std::string corrupt_warning(const std::string& key) {
  return "cache entry " + key + " was unreadable; re-solved";
}

/// `{"schema":N,"id":<id>,"ok":<ok>` -- the head every response shares.
void append_head(std::string& out, std::string_view id, bool ok) {
  out += "{\"schema\":";
  json::append_number(out, kSchemaVersion);
  out += ",\"id\":";
  out += id;
  out += ok ? ",\"ok\":true" : ",\"ok\":false";
}

/// `{"schema":N,"id":<id>,"ok":true[,"cache":<outcome>],"<field>":` --
/// an ok response up to its payload.
void append_ok_head(std::string& out, std::string_view id,
                    bool with_cache_tag, CacheLookup outcome,
                    std::string_view field) {
  append_head(out, id, true);
  if (with_cache_tag) {
    out += ",\"cache\":";
    json::append_quoted(out, cache_lookup_name(outcome));
  }
  out += ",\"";
  out += field;
  out += "\":";
}

template <typename Payload>
void append_ok_response(std::string& out, std::string_view id,
                        bool with_cache_tag, CacheLookup outcome,
                        const Payload& payload) {
  append_ok_head(out, id, with_cache_tag, outcome, payload_field(payload));
  append_json(out, payload);
  out += '}';
}

/// Sets `answer.payload_json` to its payload's bytes.
void encode_payload(Answer& answer) {
  answer.payload_json.clear();
  std::visit([&](const auto& p) { append_json(answer.payload_json, p); },
             answer.payload);
}

const char* answer_field(const Answer& answer) {
  return std::visit([](const auto& p) { return payload_field(p); },
                    answer.payload);
}

void append_ok_response(std::string& out, std::string_view id,
                        bool with_cache_tag, CacheLookup outcome,
                        const Answer& answer) {
  // The head and tag take well under 96 bytes: one reservation holds
  // the whole line.
  out.reserve(out.size() + 96 + id.size() + answer.payload_json.size());
  append_ok_head(out, id, with_cache_tag, outcome, answer_field(answer));
  out += answer.payload_json;
  out += '}';
}

void append_error_response(std::string& out, std::string_view id,
                           const std::string& error,
                           diag::SolveErrorKind kind) {
  append_head(out, id, false);
  out += ",\"error\":";
  json::append_quoted(out, error);
  if (kind != diag::SolveErrorKind::kNone) {
    out += ",\"kind\":";
    json::append_quoted(out, diag::solve_error_name(kind));
  }
  out += '}';
}

/// std::getline with a bound: reads one line (up to '\n' or EOF) but
/// keeps at most kMaxRequestLineBytes + 1 of its bytes, discarding the
/// rest, so one hostile line cannot make the batch buffer it whole.
/// False when the input is exhausted before any byte.
bool read_request_line(std::istream& in, std::string& line) {
  line.clear();
  char chunk[16384];
  bool any = false;
  for (;;) {
    in.getline(chunk, sizeof chunk);
    const auto extracted = static_cast<std::size_t>(in.gcount());
    any = any || extracted > 0;
    // A full chunk with no newline yet sets failbit but not eofbit; a
    // newline that ended the line was extracted but not stored.
    const bool full = in.fail() && !in.eof() && extracted == sizeof chunk - 1;
    const bool newline = !in.fail() && !in.eof();
    const std::size_t stored = newline ? extracted - 1 : extracted;
    if (line.size() <= kMaxRequestLineBytes) {
      line.append(chunk, std::min(stored, kMaxRequestLineBytes + 1 -
                                              line.size()));
    }
    if (!full) break;
    in.clear(in.rdstate() & ~std::ios::failbit);
  }
  return any;
}

}  // namespace

const char* cache_lookup_name(CacheLookup outcome) {
  switch (outcome) {
    case CacheLookup::kHit:
      return "hit";
    case CacheLookup::kMiss:
      return "miss";
    case CacheLookup::kStale:
      return "stale";
    case CacheLookup::kCorrupt:
      return "corrupt";
  }
  return "?";
}

std::vector<double> decode_profile_epsilons(json::Node eps) {
  const json::Node::Elements items = eps.items();
  if (items.size() > kMaxProfileLevels) {
    throw CodecError("batch: profile request with " +
                     std::to_string(items.size()) +
                     " epsilons; at most " +
                     std::to_string(kMaxProfileLevels) + " are answered");
  }
  std::vector<double> epsilons;
  epsilons.reserve(items.size());
  for (const json::Node e : items) {
    const double epsilon = decode_double(e);
    if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
      throw CodecError("batch: profile epsilons must be in (0, 1), got " +
                       e.dump());
    }
    epsilons.push_back(epsilon);
  }
  if (epsilons.empty()) {
    throw CodecError("batch: profile request with an empty epsilons array");
  }
  return epsilons;
}

ParsedRequestLine parse_request_line(const std::string& line,
                                     e2e::Method default_method) {
  if (line.size() > kMaxRequestLineBytes) {
    throw CodecError("batch: request line longer than " +
                     std::to_string(kMaxRequestLineBytes) + " bytes");
  }
  const json::Document doc(line);
  const json::Node root = doc.root();
  ParsedRequestLine req;
  try {
    static constexpr std::array<std::string_view, 5> kNames = {
        "id", "schema", "scenario", "options", "epsilons"};
    std::array<json::Node, kNames.size()> f{};
    root.lookup(kNames, f);
    // Capture the id before any validation so even a wrong-schema or
    // undecodable request gets its error echoed back under its own id.
    if (f[0]) req.id = f[0].dump();
    require_schema(root);
    e2e::Scenario sc = decode_scenario(json::required(f[2], kNames[2]));
    SolveOptions options;
    options.method = default_method;
    if (f[3] && !f[3].is_null()) options = decode_solve_options(f[3]);
    // Fold the scheduler override into the scenario here (not just inside
    // solve_cache_key) so grouping by options groups by what actually
    // varies the solve.
    if (options.scheduler.has_value()) {
      sc.scheduler = *options.scheduler;
      options.scheduler.reset();
    }
    // A non-null "epsilons" array makes this a profile request.  The
    // grid is validated here so a malformed one is a parse error (the
    // engine would throw the same complaint mid-solve otherwise).
    if (f[4] && !f[4].is_null()) req.epsilons = decode_profile_epsilons(f[4]);
    // A scalar line is answered by the stateless Solver::solve, which
    // ignores warm_start, so fold it to cold: both spellings share one
    // key, one cache entry and one serve Solver.  A profile keeps it, as
    // it selects the warm chain.
    if (!req.is_profile()) options.warm_start = e2e::WarmStart::kCold;
    req.scenario = sc;
    req.options = options;
    req.key = req.is_profile()
                  ? profile_cache_key(sc, req.epsilons, options)
                  : solve_cache_key(sc, options);
    req.key_hash = fnv1a64(req.key);
  } catch (const std::exception& e) {
    // The id (when readable) survives into the error response.
    throw PartialRequestError(e.what(), std::move(req.id));
  }
  return req;
}

void apply_cache_outcome(e2e::BoundResult& result, CacheLookup outcome,
                         const std::string& key) {
  if (outcome == CacheLookup::kCorrupt) {
    result.diagnostics.warn(diag::SolveErrorKind::kCorruptCache,
                            corrupt_warning(key));
  }
}

void apply_cache_outcome(e2e::DelayProfile& profile, CacheLookup outcome,
                         const std::string& key) {
  // The profile carries no diagnostics of its own: the recovery warning
  // lands on the first level so it stays downstream-visible.
  if (outcome == CacheLookup::kCorrupt && !profile.levels.empty()) {
    profile.levels.front().diagnostics.warn(
        diag::SolveErrorKind::kCorruptCache, corrupt_warning(key));
  }
}

void apply_cache_outcome(Answer& answer, CacheLookup outcome,
                         const std::string& key) {
  if (outcome != CacheLookup::kCorrupt) return;
  std::visit([&](auto& payload) { apply_cache_outcome(payload, outcome, key); },
             answer.payload);
  encode_payload(answer);
}

namespace {

/// solve_request without the payload bytes: run_batch writes those in
/// input order.
Answer solve_payload(const deltanc::Solver& solver,
                     const ParsedRequestLine& line) {
  Answer out;
  auto failed = classified_solve(line.scenario, [&](const e2e::Scenario& sc) {
    if (line.is_profile()) {
      out.payload = solver.solve_profile(sc, line.epsilons);
    } else {
      out.payload = solver.solve(sc);
    }
  });
  if (failed) {
    out.ok = false;
    out.error = failed->diagnostics.message;
    if (line.is_profile()) {
      e2e::DelayProfile& profile = out.payload.emplace<e2e::DelayProfile>();
      profile.epsilons = line.epsilons;
      profile.levels.assign(line.epsilons.size(), *failed);
    } else {
      out.payload = std::move(*failed);
    }
  }
  return out;
}

}  // namespace

Answer solve_request(const deltanc::Solver& solver,
                     const ParsedRequestLine& line) {
  Answer out = solve_payload(solver, line);
  encode_payload(out);
  return out;
}

CacheLookup lookup_answer(ResultCache& cache, const ParsedRequestLine& line,
                          Answer& answer) {
  if (line.is_profile()) {
    return cache.lookup_profile(line.key, line.key_hash,
                                answer.payload.emplace<e2e::DelayProfile>(),
                                answer.payload_json);
  }
  return cache.lookup(line.key, line.key_hash,
                      answer.payload.emplace<e2e::BoundResult>(),
                      answer.payload_json);
}

bool try_store_answer(ResultCache& cache, const ParsedRequestLine& line,
                      const Answer& answer) {
  return cache.try_store_json(line.key, line.key_hash, answer_field(answer),
                              answer.payload_json);
}

ResponseLine make_ok_response(std::string_view id, bool with_cache_tag,
                              CacheLookup outcome,
                              const e2e::BoundResult& result) {
  ResponseLine line;
  append_ok_response(line.text, id, with_cache_tag, outcome, result);
  return line;
}

ResponseLine make_ok_profile_response(std::string_view id,
                                      bool with_cache_tag, CacheLookup outcome,
                                      const e2e::DelayProfile& profile) {
  ResponseLine line;
  append_ok_response(line.text, id, with_cache_tag, outcome, profile);
  return line;
}

ResponseLine make_ok_response(std::string_view id, bool with_cache_tag,
                              CacheLookup outcome, const Answer& answer) {
  ResponseLine line;
  append_ok_response(line.text, id, with_cache_tag, outcome, answer);
  return line;
}

ResponseLine make_error_response(std::string_view id,
                                 const std::string& error,
                                 diag::SolveErrorKind kind) {
  ResponseLine line;
  append_error_response(line.text, id, error, kind);
  return line;
}

BatchSummary run_batch(std::istream& in, std::ostream& out,
                       const BatchOptions& options) {
  const auto t0 = Clock::now();
  BatchSummary summary;
  const CacheStats cache_before =
      options.cache != nullptr ? options.cache->stats() : CacheStats{};

  // ----- ingest ----------------------------------------------------------
  // A final line without a trailing newline is read like any other, so
  // "emit-batch | head -c" style truncated tails are answered, not
  // dropped.  An over-long line keeps only its first
  // kMaxRequestLineBytes + 1 bytes, which parse_request_line refuses.
  std::vector<Request> requests;
  std::string line;
  while (read_request_line(in, line)) {
    if (is_blank_request_line(line)) continue;
    Request req;
    try {
      req.line = parse_request_line(line, options.default_method);
      req.parsed = true;
    } catch (PartialRequestError& e) {
      req.line.id = std::move(e.id);
      req.error = e.what();
    } catch (const std::exception& e) {
      req.error = e.what();
    }
    requests.push_back(std::move(req));
  }
  summary.requests = static_cast<std::int64_t>(requests.size());

  // ----- cache pass ------------------------------------------------------
  std::vector<std::size_t> pending;  // request indices still to solve
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Request& req = requests[i];
    if (!req.parsed) continue;
    if (options.cache != nullptr) {
      req.outcome = lookup_answer(*options.cache, req.line, req.answer);
      if (req.outcome == CacheLookup::kHit) {
        ++summary.cached;
        continue;
      }
    }
    pending.push_back(i);
  }

  // ----- solve pass: one fan-out over every miss -------------------------
  // One Solver per distinct options group: solve/solve_profile are const
  // and keep no state between calls, so the workers share it.  Each
  // worker claims the next miss from a shared cursor and writes into
  // that request's own slot, so the output order is the input order.
  std::map<std::string, Solver> solvers;
  std::vector<const Solver*> solver_of;
  solver_of.reserve(pending.size());
  for (const std::size_t i : pending) {
    const SolveOptions& o = requests[i].line.options;
    std::string group;
    append_json(group, o);
    solver_of.push_back(&solvers.try_emplace(group, o).first->second);
  }
  ProgressCounter progress(options.progress, pending.size());
  parallel_for(pending.size(),
               static_cast<unsigned>(std::max(options.threads, 0)),
               [&](std::size_t j) {
                 Request& req = requests[pending[j]];
                 req.answer = solve_payload(*solver_of[j], req.line);
                 progress.tick();
               });

  // ----- store and emit (input order) ------------------------------------
  // A solved answer's bytes are written here, once, for its store and
  // its response line, and every answer is dropped once written: a cold
  // batch holds the bytes of one payload at a time.
  std::string response;  // one buffer, reused by every line
  for (Request& req : requests) {
    if (req.parsed && req.outcome != CacheLookup::kHit) {
      encode_payload(req.answer);
      if (req.answer.ok && options.cache != nullptr) {
        // Persist before the kCorruptCache warning is applied: it
        // describes how this response was obtained, not the result.  A
        // failed store (full disk, read-only directory) degrades to a
        // counted solve-through -- the batch keeps answering.
        (void)try_store_answer(*options.cache, req.line, req.answer);
      }
      apply_cache_outcome(req.answer, req.outcome, req.line.key);
      ++summary.solved;
      if (!req.answer.ok) ++summary.failed;
    }
    const Answer answer = std::move(req.answer);
    // After a hang-up the rest is stored, not written.
    if (summary.output_failed) continue;
    response.clear();
    if (!req.parsed) {
      append_error_response(response, req.line.id, req.error,
                            diag::SolveErrorKind::kNone);
      ++summary.parse_errors;
    } else {
      append_ok_response(response, req.line.id, options.cache != nullptr,
                         req.outcome, answer);
      std::visit([&](const auto& payload) { summary.stats += payload.stats; },
                 answer.payload);
    }
    response += '\n';
    out.write(response.data(), static_cast<std::streamsize>(response.size()));
    if (!out.good()) {
      // The consumer hung up (e.g. `--batch | head`): stop emitting,
      // report the truncation instead of dying on SIGPIPE (the CLI
      // ignores the signal; the stream just goes bad).
      summary.output_failed = true;
      continue;
    }
    ++summary.responses;
  }

  if (options.cache != nullptr) {
    const CacheStats& after = options.cache->stats();
    summary.cache_stats.hits = after.hits - cache_before.hits;
    summary.cache_stats.misses = after.misses - cache_before.misses;
    summary.cache_stats.stale = after.stale - cache_before.stale;
    summary.cache_stats.corrupt = after.corrupt - cache_before.corrupt;
    summary.cache_stats.stores = after.stores - cache_before.stores;
    summary.cache_stats.store_failures =
        after.store_failures - cache_before.store_failures;
  }
  summary.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return summary;
}

}  // namespace deltanc::io
