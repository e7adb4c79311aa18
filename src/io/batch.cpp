#include "io/batch.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/thread_pool.h"
#include "e2e/solver.h"

namespace deltanc::io {

namespace {

using Clock = std::chrono::steady_clock;
using json::Value;

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

/// The ok response layout shared by both payload kinds.
Value ok_response(const Value& id, bool with_cache_tag, CacheLookup outcome,
                  const char* payload_field, Value payload) {
  Value response = Value::object();
  response.set("schema", Value::number(kSchemaVersion)).set("id", id);
  response.set("ok", Value::boolean(true));
  if (with_cache_tag) {
    response.set("cache", Value::string(cache_lookup_name(outcome)));
  }
  response.set(payload_field, std::move(payload));
  return response;
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

ParsedRequestLine parse_request_line(const std::string& line,
                                     e2e::Method default_method) {
  const Value doc = Value::parse(line);
  ParsedRequestLine req;
  try {
    // Capture the id before any validation so even a wrong-schema or
    // undecodable request gets its error echoed back under its own id.
    if (const Value* id = doc.find("id")) req.id = *id;
    require_schema(doc);
    e2e::Scenario sc = decode_scenario(doc.at("scenario"));
    SolveOptions options;
    options.method = default_method;
    if (const Value* o = doc.find("options"); o != nullptr && !o->is_null()) {
      options = decode_solve_options(*o);
    }
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
    if (const Value* eps = doc.find("epsilons");
        eps != nullptr && !eps->is_null()) {
      for (const Value& e : eps->items()) {
        const double epsilon = decode_double(e);
        if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
          throw CodecError("batch: profile epsilons must be in (0, 1), got " +
                           e.dump());
        }
        req.epsilons.push_back(epsilon);
      }
      if (req.epsilons.empty()) {
        throw CodecError("batch: profile request with an empty epsilons "
                         "array");
      }
    }
    req.scenario = sc;
    req.options = options;
    req.key = req.is_profile()
                  ? profile_cache_key(sc, req.epsilons, options)
                  : solve_cache_key(sc, options);
  } catch (const PartialRequestError&) {
    throw;
  } catch (const std::exception& e) {
    // The id (when readable) survives into the error response.
    throw PartialRequestError(e.what(), req.id);
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
  std::visit([&](auto& payload) { apply_cache_outcome(payload, outcome, key); },
             answer.payload);
}

Answer solve_request(const deltanc::Solver& solver,
                     const ParsedRequestLine& line) {
  Answer out;
  const diag::ValidationReport vr = line.scenario.validate();
  diag::SolveErrorKind fail_kind = diag::SolveErrorKind::kNumericalDomain;
  try {
    if (!vr.ok()) {
      fail_kind = diag::SolveErrorKind::kInvalidScenario;
      throw std::invalid_argument(vr.message());
    }
    if (line.is_profile()) {
      out.payload = solver.solve_profile(line.scenario, line.epsilons);
    } else {
      out.payload = solver.solve(line.scenario);
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
    e2e::BoundResult failed{std::numeric_limits<double>::infinity(), 0.0, 0.0,
                            0.0, 0.0};
    failed.diagnostics.fail(fail_kind, e.what());
    if (line.is_profile()) {
      e2e::DelayProfile& profile = out.payload.emplace<e2e::DelayProfile>();
      profile.epsilons = line.epsilons;
      profile.levels.assign(line.epsilons.size(), failed);
    } else {
      out.payload = std::move(failed);
    }
  }
  return out;
}

CacheLookup lookup_answer(ResultCache& cache, const ParsedRequestLine& line,
                          Answer& answer) {
  if (line.is_profile()) {
    return cache.lookup_profile(line.key,
                                answer.payload.emplace<e2e::DelayProfile>());
  }
  return cache.lookup(line.key, answer.payload.emplace<e2e::BoundResult>());
}

bool try_store_answer(ResultCache& cache, const std::string& key,
                      const Answer& answer) {
  if (const auto* profile = std::get_if<e2e::DelayProfile>(&answer.payload)) {
    return cache.try_store_profile(key, *profile);
  }
  return cache.try_store(key, std::get<e2e::BoundResult>(answer.payload));
}

json::Value make_ok_response(const json::Value& id, bool with_cache_tag,
                             CacheLookup outcome,
                             const e2e::BoundResult& result) {
  return ok_response(id, with_cache_tag, outcome, "result",
                     encode_bound_result(result));
}

json::Value make_ok_profile_response(const json::Value& id,
                                     bool with_cache_tag, CacheLookup outcome,
                                     const e2e::DelayProfile& profile) {
  return ok_response(id, with_cache_tag, outcome, "profile",
                     encode_delay_profile(profile));
}

json::Value make_ok_response(const json::Value& id, bool with_cache_tag,
                             CacheLookup outcome, const Answer& answer) {
  if (const auto* profile = std::get_if<e2e::DelayProfile>(&answer.payload)) {
    return make_ok_profile_response(id, with_cache_tag, outcome, *profile);
  }
  return make_ok_response(id, with_cache_tag, outcome,
                          std::get<e2e::BoundResult>(answer.payload));
}

json::Value make_error_response(const json::Value& id,
                                const std::string& error,
                                diag::SolveErrorKind kind) {
  Value response = Value::object();
  response.set("schema", Value::number(kSchemaVersion)).set("id", id);
  response.set("ok", Value::boolean(false))
      .set("error", Value::string(error));
  if (kind != diag::SolveErrorKind::kNone) {
    response.set("kind", Value::string(diag::solve_error_name(kind)));
  }
  return response;
}

BatchSummary run_batch(std::istream& in, std::ostream& out,
                       const BatchOptions& options) {
  const auto t0 = Clock::now();
  BatchSummary summary;
  const CacheStats cache_before =
      options.cache != nullptr ? options.cache->stats() : CacheStats{};

  // ----- ingest ----------------------------------------------------------
  // std::getline delivers a final line without a trailing newline like
  // any other (it extracts up to EOF), so "emit-batch | head -c" style
  // truncated tails are answered, not dropped.
  std::vector<Request> requests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Request req;
    try {
      req.line = parse_request_line(line, options.default_method);
      req.parsed = true;
    } catch (const PartialRequestError& e) {
      req.line.id = e.id;
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
    solver_of.push_back(
        &solvers.try_emplace(encode_solve_options(o).dump(), o).first->second);
  }
  ProgressCounter progress(options.progress, pending.size());
  parallel_for(pending.size(),
               static_cast<unsigned>(std::max(options.threads, 0)),
               [&](std::size_t j) {
                 Request& req = requests[pending[j]];
                 req.answer = solve_request(*solver_of[j], req.line);
                 progress.tick();
               });
  for (const std::size_t i : pending) {
    Request& req = requests[i];
    if (req.answer.ok && options.cache != nullptr) {
      // Persist before the kCorruptCache warning is applied: it
      // describes how this response was obtained, not the result.  A
      // failed store (full disk, read-only directory) degrades to a
      // counted solve-through -- the batch keeps answering.
      (void)try_store_answer(*options.cache, req.line.key, req.answer);
    }
    apply_cache_outcome(req.answer, req.outcome, req.line.key);
    ++summary.solved;
    if (!req.answer.ok) ++summary.failed;
  }

  // ----- emit (input order) ----------------------------------------------
  for (const Request& req : requests) {
    Value response;
    if (!req.parsed) {
      response = make_error_response(req.line.id, req.error);
      ++summary.parse_errors;
    } else {
      response = make_ok_response(req.line.id, options.cache != nullptr,
                                  req.outcome, req.answer);
      std::visit([&](const auto& payload) { summary.stats += payload.stats; },
                 req.answer.payload);
    }
    out << response.dump() << '\n';
    if (!out.good()) {
      // The consumer hung up (e.g. `--batch | head`): stop emitting,
      // report the truncation instead of dying on SIGPIPE (the CLI
      // ignores the signal; the stream just goes bad).
      summary.output_failed = true;
      break;
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
