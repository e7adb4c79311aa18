#include "io/batch.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <istream>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
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
  SweepPoint point;            ///< the scalar answer (cache hit or solve)
  e2e::DelayProfile profile;  ///< the answer when line.is_profile()
};

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
  result.stats.cache_hits = 0;
  result.stats.cache_misses = 0;
  result.stats.cache_stale = 0;
  switch (outcome) {
    case CacheLookup::kHit:
      result.stats.cache_hits = 1;
      return;
    case CacheLookup::kStale:
      result.stats.cache_stale = 1;
      return;
    case CacheLookup::kMiss:
      result.stats.cache_misses = 1;
      return;
    case CacheLookup::kCorrupt:
      result.stats.cache_misses = 1;
      result.diagnostics.warn(
          diag::SolveErrorKind::kCorruptCache,
          "cache entry " + key + " was unreadable; re-solved");
      return;
  }
}

void apply_cache_outcome(e2e::DelayProfile& profile, CacheLookup outcome,
                         const std::string& key) {
  profile.stats.cache_hits = 0;
  profile.stats.cache_misses = 0;
  profile.stats.cache_stale = 0;
  switch (outcome) {
    case CacheLookup::kHit:
      profile.stats.cache_hits = 1;
      return;
    case CacheLookup::kStale:
      profile.stats.cache_stale = 1;
      return;
    case CacheLookup::kMiss:
      profile.stats.cache_misses = 1;
      return;
    case CacheLookup::kCorrupt:
      profile.stats.cache_misses = 1;
      // The profile carries no diagnostics of its own: the recovery
      // warning lands on the first level so it stays downstream-visible.
      if (!profile.levels.empty()) {
        profile.levels.front().diagnostics.warn(
            diag::SolveErrorKind::kCorruptCache,
            "cache entry " + key + " was unreadable; re-solved");
      }
      return;
  }
}

ProfileAnswer solve_profile_request(const deltanc::Solver& solver,
                                    const e2e::Scenario& sc,
                                    std::span<const double> epsilons) {
  ProfileAnswer out;
  const diag::ValidationReport vr = sc.validate();
  diag::SolveErrorKind fail_kind = diag::SolveErrorKind::kNumericalDomain;
  try {
    if (!vr.ok()) {
      fail_kind = diag::SolveErrorKind::kInvalidScenario;
      throw std::invalid_argument(vr.message());
    }
    out.profile = solver.solve_profile(sc, epsilons);
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
    e2e::BoundResult failed{std::numeric_limits<double>::infinity(), 0.0, 0.0,
                            0.0, 0.0};
    failed.diagnostics.fail(fail_kind, e.what());
    out.profile = e2e::DelayProfile{};
    out.profile.epsilons.assign(epsilons.begin(), epsilons.end());
    out.profile.levels.assign(epsilons.size(), failed);
  }
  return out;
}

json::Value make_ok_response(const json::Value& id, bool with_cache_tag,
                             CacheLookup outcome,
                             const e2e::BoundResult& result) {
  Value response = Value::object();
  response.set("schema", Value::number(kSchemaVersion)).set("id", id);
  response.set("ok", Value::boolean(true));
  if (with_cache_tag) {
    response.set("cache", Value::string(cache_lookup_name(outcome)));
  }
  response.set("result", encode_bound_result(result));
  return response;
}

json::Value make_ok_profile_response(const json::Value& id,
                                     bool with_cache_tag, CacheLookup outcome,
                                     const e2e::DelayProfile& profile) {
  Value response = Value::object();
  response.set("schema", Value::number(kSchemaVersion)).set("id", id);
  response.set("ok", Value::boolean(true));
  if (with_cache_tag) {
    response.set("cache", Value::string(cache_lookup_name(outcome)));
  }
  response.set("profile", encode_delay_profile(profile));
  return response;
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
    if (options.cache == nullptr) {
      pending.push_back(i);
      continue;
    }
    if (req.line.is_profile()) {
      e2e::DelayProfile cached;
      req.outcome = options.cache->lookup_profile(req.line.key, cached);
      if (req.outcome == CacheLookup::kHit) {
        req.profile = std::move(cached);
        apply_cache_outcome(req.profile, req.outcome, req.line.key);
        ++summary.cached;
      } else {
        pending.push_back(i);
      }
      continue;
    }
    e2e::BoundResult cached;
    req.outcome = options.cache->lookup(req.line.key, cached);
    if (req.outcome == CacheLookup::kHit) {
      req.point.scenario = req.line.scenario;
      req.point.bound = std::move(cached);
      apply_cache_outcome(req.point.bound, req.outcome, req.line.key);
      ++summary.cached;
    } else {
      pending.push_back(i);
    }
  }

  // ----- solve pass: group misses by options, fan out per group ----------
  // Profile requests fan out separately (their unit of work is a whole
  // d(epsilon) grid, not one BoundResult) but share the progress stream.
  std::map<std::string, std::vector<std::size_t>> groups;
  std::map<std::string, std::vector<std::size_t>> profile_groups;
  for (const std::size_t i : pending) {
    auto& bucket =
        requests[i].line.is_profile() ? profile_groups : groups;
    bucket[encode_solve_options(requests[i].line.options).dump()].push_back(i);
  }
  const std::size_t total_pending = pending.size();
  std::size_t done_offset = 0;
  for (const auto& [options_key, members] : groups) {
    (void)options_key;
    const Solver solver(requests[members.front()].line.options);
    std::vector<e2e::Scenario> scenarios;
    scenarios.reserve(members.size());
    for (const std::size_t i : members) {
      scenarios.push_back(requests[i].line.scenario);
    }
    SweepOptions sweep;
    sweep.threads = options.threads;
    sweep.method = solver.options().method;
    sweep.solver = [&solver](const e2e::Scenario& sc, e2e::Method) {
      return solver.solve(sc);
    };
    if (options.progress) {
      sweep.progress = [&options, done_offset,
                        total_pending](std::size_t done, std::size_t) {
        options.progress(done_offset + done, total_pending);
      };
    }
    const SweepReport report = SweepRunner(sweep).run(
        std::span<const e2e::Scenario>(scenarios));
    for (std::size_t j = 0; j < members.size(); ++j) {
      Request& req = requests[members[j]];
      req.point = report.points[j];
      if (req.point.ok && options.cache != nullptr) {
        // Persist with the cache counters zeroed: they describe how a
        // particular response was obtained, not the result itself.  A
        // failed store (full disk, read-only directory) degrades to a
        // counted solve-through -- the batch keeps answering.
        (void)options.cache->try_store(req.line.key, req.point.bound);
      }
      apply_cache_outcome(req.point.bound, req.outcome, req.line.key);
      ++summary.solved;
      if (!req.point.ok) ++summary.failed;
    }
    done_offset += members.size();
  }

  // ----- profile solve pass ----------------------------------------------
  for (const auto& [options_key, members] : profile_groups) {
    (void)options_key;
    const Solver solver(requests[members.front()].line.options);
    const unsigned threads = static_cast<unsigned>(std::min<std::size_t>(
        members.size(), options.threads > 0
                            ? static_cast<unsigned>(options.threads)
                            : ThreadPool::default_thread_count()));
    std::atomic<std::size_t> cursor{0};
    std::mutex progress_mu;
    std::size_t group_done = 0;
    const auto worker = [&] {
      for (;;) {
        const std::size_t j = cursor.fetch_add(1, std::memory_order_relaxed);
        if (j >= members.size()) return;
        Request& req = requests[members[j]];
        ProfileAnswer answer = solve_profile_request(
            solver, req.line.scenario, req.line.epsilons);
        req.point.ok = answer.ok;
        req.point.error = answer.error;
        req.profile = std::move(answer.profile);
        if (options.progress) {
          std::lock_guard<std::mutex> lock(progress_mu);
          options.progress(done_offset + ++group_done, total_pending);
        }
      }
    };
    {
      ThreadPool pool(threads);
      for (unsigned t = 0; t < threads; ++t) pool.submit(worker);
      pool.wait_idle();
    }
    for (const std::size_t i : members) {
      Request& req = requests[i];
      if (req.point.ok && options.cache != nullptr) {
        // Same persistence discipline as the scalar pass: counters
        // zeroed, failed stores degrade to counted solve-through.
        (void)options.cache->try_store_profile(req.line.key, req.profile);
      }
      apply_cache_outcome(req.profile, req.outcome, req.line.key);
      ++summary.solved;
      if (!req.point.ok) ++summary.failed;
    }
    done_offset += members.size();
  }

  // ----- emit (input order) ----------------------------------------------
  for (const Request& req : requests) {
    Value response;
    if (!req.parsed) {
      response = make_error_response(req.line.id, req.error);
      ++summary.parse_errors;
    } else if (req.line.is_profile()) {
      response = make_ok_profile_response(
          req.line.id, options.cache != nullptr, req.outcome, req.profile);
      summary.stats += req.profile.stats;
    } else {
      response = make_ok_response(req.line.id, options.cache != nullptr,
                                  req.outcome, req.point.bound);
      summary.stats += req.point.bound.stats;
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
