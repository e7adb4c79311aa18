// The persistent solve service: fault-plan grammar, bounded-queue
// backpressure, warm-layer behavior, and every robustness path --
// timeout with worker replacement, store-failure solve-through,
// corrupt-entry recovery, overload, reload, and drain.  Slow solves and
// full disks are driven deterministically via serve::FaultPlan; a
// corrupt entry is made by damaging its bytes on disk.
#include "e2e/solver.h"
#include "read_back.h"
#include "serve/service.h"

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/batch.h"
#include "io/codec.h"
#include "serve/bounded_queue.h"
#include "serve/fault_plan.h"
#include "serve/listener.h"

namespace deltanc::serve {
namespace {

using io::json::Value;
using io::testing::ReadBack;

e2e::Scenario small_scenario(int n_cross) {
  e2e::Scenario sc;
  sc.hops = 3;
  sc.n_through = 80;
  sc.n_cross = n_cross;
  sc.epsilon = 1e-6;
  sc.scheduler = sched::SchedulerKind::kFifo;
  return sc;
}

std::string request_line(const e2e::Scenario& sc, int id) {
  Value req = Value::object();
  req.set("schema", Value::number(io::kSchemaVersion))
      .set("id", Value::number(id))
      .set("scenario", io::encode_scenario(sc));
  return req.dump();
}

std::string profile_request_line(const e2e::Scenario& sc, int id,
                                 const std::vector<double>& epsilons) {
  Value eps = Value::array();
  for (const double e : epsilons) eps.push_back(io::encode_double(e));
  Value req = Value::parse(request_line(sc, id));
  req.set("epsilons", std::move(eps));
  return req.dump();
}

std::filesystem::path fresh_cache_dir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Thread-safe response collector; tests block until N answers arrive.
class Collector {
 public:
  SolveService::Sink sink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(line);
      cv_.notify_all();
    };
  }

  std::vector<std::string> wait_for_lines(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(30),
                 [&] { return lines_.size() >= n; });
    return lines_;
  }

  std::vector<Value> wait_for(std::size_t n) {
    std::vector<Value> out;
    for (const std::string& line : wait_for_lines(n)) {
      out.push_back(Value::parse(line));
    }
    return out;
  }

  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_.size();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
};

/// Finds the response whose "id" is `id`; fails the test when absent.
const Value* find_id(const std::vector<Value>& responses, double id) {
  for (const Value& r : responses) {
    const Value* rid = r.find("id");
    if (rid != nullptr && rid->is_number() && rid->as_number() == id) {
      return &r;
    }
  }
  return nullptr;
}

// ----- FaultPlan grammar ---------------------------------------------------

TEST(FaultPlan, ParsesEveryEntryKindAndRoundTrips) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("delay:7:250;store-fail:2", plan, error))
      << error;
  ASSERT_EQ(plan.delays.size(), 1u);
  EXPECT_EQ(plan.delays[0].id, 7.0);
  EXPECT_EQ(plan.delays[0].ms, 250.0);
  EXPECT_EQ(plan.store_failures, 2);

  // The canonical spelling parses back to the same plan.
  FaultPlan again;
  ASSERT_TRUE(FaultPlan::parse(plan.to_string(), again, error)) << error;
  EXPECT_EQ(again.to_string(), plan.to_string());
}

TEST(FaultPlan, EmptySpecIsEmptyPlanAndBadSpecsAreRejected) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("", plan, error));
  EXPECT_TRUE(plan.empty());

  for (const char* bad :
       {"delay:1", "delay:1:-5", "delay:x:5", "nap:1:2", "store-fail:-1",
        "store-fail:1.5", "store-fail:x", "delay:1:2;bogus"}) {
    EXPECT_FALSE(FaultPlan::parse(bad, plan, error)) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(FaultPlan, RetiredCrashAndCorruptEntriesAreRejected) {
  // Worker crashes and forced-corrupt loads are not fault entries (an
  // in-process crash ends the process; corruption is made on disk); the
  // error names the entries that are.
  for (const char* retired : {"kill:0:1", "load-corrupt:1"}) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::parse(retired, plan, error)) << retired;
    EXPECT_NE(error.find(retired), std::string::npos) << error;
    EXPECT_NE(error.find("delay:<id>:<ms>"), std::string::npos) << error;
    EXPECT_NE(error.find("store-fail:<n>"), std::string::npos) << error;
  }
}

TEST(FaultPlan, DelaysSumPerIdAndAreNeverConsumed) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("delay:5:10;delay:5:2.5;delay:7:1", plan,
                               error));
  EXPECT_EQ(plan.delay_ms_for("5"), 12.5);
  EXPECT_EQ(plan.delay_ms_for("5"), 12.5);  // asking again sees the same
  EXPECT_EQ(plan.delay_ms_for("7"), 1.0);
  EXPECT_EQ(plan.delay_ms_for("6"), 0.0);
  // The id is read as the response writes it: a number's bytes match by
  // value, a string id never does, whatever it spells.
  EXPECT_EQ(plan.delay_ms_for("7.0"), 1.0);
  EXPECT_EQ(plan.delay_ms_for("\"7\""), 0.0);
  EXPECT_EQ(plan.delay_ms_for("null"), 0.0);
  EXPECT_EQ(plan.delay_ms_for("[7]"), 0.0);
}

// ----- BoundedQueue --------------------------------------------------------

TEST(BoundedQueue, FullQueueRejectsAndCloseStillDrains) {
  BoundedQueue<int> queue(2);
  int items[] = {1, 2, 3, 4};
  EXPECT_TRUE(queue.try_push(items[0]));
  EXPECT_TRUE(queue.try_push(items[1]));
  EXPECT_FALSE(queue.try_push(items[2]));  // backpressure
  EXPECT_EQ(queue.pop().value(), 1);
  queue.close();
  EXPECT_FALSE(queue.try_push(items[3]));
  EXPECT_EQ(queue.pop().value(), 2);        // close() still drains
  EXPECT_FALSE(queue.pop().has_value());    // then signals shutdown
}

TEST(BoundedQueue, RefusedPushLeavesTheItemWithTheCaller) {
  // Strings longer than the inline buffer: a move would empty them.
  const std::string a(40, 'a'), b(40, 'b'), c(40, 'c');
  BoundedQueue<std::string> queue(1);
  std::string first = a;
  EXPECT_TRUE(queue.try_push(first));
  std::string full = b;
  EXPECT_FALSE(queue.try_push(full));
  EXPECT_EQ(full, b);
  queue.close();
  std::string closed = c;
  EXPECT_FALSE(queue.try_push(closed));
  EXPECT_EQ(closed, c);
  EXPECT_EQ(queue.pop().value(), a);
}

// ----- SolveService --------------------------------------------------------

TEST(SolveServiceTest, SolvesParsesAndIgnoresBlankLines) {
  ServeOptions options;
  options.workers = 2;
  SolveService service(options);
  Collector collector;
  service.submit(request_line(small_scenario(60), 0), collector.sink());
  service.submit("   ", collector.sink());  // ignored, no response
  service.submit("{\"schema\":3,\"id\":7,\"scenario\":42}",
                 collector.sink());  // undecodable, answered in place
  const std::vector<Value> responses = collector.wait_for(2);
  ASSERT_EQ(responses.size(), 2u);

  const Value* solved = find_id(responses, 0.0);
  ASSERT_NE(solved, nullptr);
  EXPECT_TRUE(solved->at("ok").as_bool());
  // No cache directory attached: no "cache" tag, like cache-less batch.
  EXPECT_EQ(solved->find("cache"), nullptr);
  const e2e::BoundResult direct = deltanc::Solver().solve(small_scenario(60));
  EXPECT_EQ(io::decode_bound_result(ReadBack(solved->at("result"))).delay_ms,
            direct.delay_ms);

  const Value* bad = find_id(responses, 7.0);
  ASSERT_NE(bad, nullptr);
  EXPECT_FALSE(bad->at("ok").as_bool());
  EXPECT_EQ(bad->find("kind"), nullptr);  // plain parse error, no kind

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.received, 2);
  EXPECT_EQ(stats.answered, 2);
  EXPECT_EQ(stats.solved, 1);
  EXPECT_EQ(stats.parse_errors, 1);
}

TEST(SolveServiceTest, WarmLayersServeRepeatsAndReloadDropsMemory) {
  ServeOptions options;
  options.workers = 1;
  options.cache_dir = fresh_cache_dir("serve_warm");
  SolveService service(options);
  Collector collector;
  const std::string line = request_line(small_scenario(50), 0);

  service.submit(line, collector.sink());
  collector.wait_for(1);
  service.submit(line, collector.sink());  // memory hit
  collector.wait_for(2);
  service.reload();                        // drops the memory layer
  service.submit(line, collector.sink());  // disk hit
  const std::vector<Value> responses = collector.wait_for(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].at("cache").as_string(), "miss");
  EXPECT_EQ(responses[1].at("cache").as_string(), "hit");
  EXPECT_EQ(responses[2].at("cache").as_string(), "hit");
  // The outcome lives in the "cache" tag alone: both warm results are
  // byte-identical to the cold one (exactly what one-shot --batch emits
  // on a warm run).
  for (int i : {1, 2}) {
    EXPECT_EQ(responses[i].at("result").dump(),
              responses[0].at("result").dump());
  }

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.solved, 1);
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.memory_hits, 1);  // the post-reload hit came from disk
  EXPECT_EQ(stats.reloads, 1);
  // Cache traffic survives the reload (retired + live handles).
  EXPECT_EQ(stats.cache.stores, 1);
  EXPECT_EQ(stats.cache.hits, 1);
}

TEST(SolveServiceTest, DeadlineOverrunAnswersClassifiedTimeout) {
  ServeOptions options;
  options.workers = 1;
  options.deadline_ms = 60;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("delay:5:2000", options.faults, error));
  SolveService service(options);
  Collector collector;
  service.submit(request_line(small_scenario(45), 5), collector.sink());
  const std::vector<Value> responses = collector.wait_for(1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].at("ok").as_bool());
  EXPECT_EQ(responses[0].at("kind").as_string(), "timeout");

  // The replacement worker keeps serving after the zombie is abandoned.
  service.submit(request_line(small_scenario(46), 6), collector.sink());
  const std::vector<Value> more = collector.wait_for(2);
  const Value* next = find_id(more, 6.0);
  ASSERT_NE(next, nullptr);
  EXPECT_TRUE(next->at("ok").as_bool());

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.timeouts, 1);
  EXPECT_GE(stats.respawns, 1);
  EXPECT_EQ(stats.answered, 2);
}

TEST(SolveServiceTest, ReplacementWorkerAnswersRequestQueuedBehindTimeout) {
  // Id 6 is queued behind the wedged id 5 before the deadline fires, so
  // it is still in the shard queue when the supervisor abandons the
  // incumbent: the replacement worker must pop and answer it.
  ServeOptions options;
  options.workers = 1;
  options.deadline_ms = 60;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("delay:5:2000", options.faults, error));
  SolveService service(options);
  Collector collector;
  service.submit(request_line(small_scenario(45), 5), collector.sink());
  service.submit(request_line(small_scenario(46), 6), collector.sink());
  const std::vector<Value> responses = collector.wait_for(2);
  ASSERT_EQ(responses.size(), 2u);

  const Value* wedged = find_id(responses, 5.0);
  ASSERT_NE(wedged, nullptr);
  EXPECT_FALSE(wedged->at("ok").as_bool());
  EXPECT_EQ(wedged->at("kind").as_string(), "timeout");
  const Value* queued = find_id(responses, 6.0);
  ASSERT_NE(queued, nullptr);
  EXPECT_TRUE(queued->at("ok").as_bool());
  EXPECT_EQ(io::decode_bound_result(ReadBack(queued->at("result"))).delay_ms,
            deltanc::Solver().solve(small_scenario(46)).delay_ms);

  service.drain();  // joins the zombie once its delayed solve ends
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.answered, 2);
  EXPECT_EQ(stats.timeouts, 1);
  EXPECT_EQ(stats.respawns, 1);
  EXPECT_EQ(stats.discarded, 1);  // the zombie's late answer for id 5
}

TEST(SolveServiceTest, StoreFailureDegradesToCountedSolveThrough) {
  ServeOptions options;
  options.workers = 1;
  options.memory_entries = 0;  // force every repeat through the disk
  options.cache_dir = fresh_cache_dir("serve_store_fail");
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("store-fail:1", options.faults, error));
  SolveService service(options);
  Collector collector;
  const std::string line = request_line(small_scenario(42), 0);

  service.submit(line, collector.sink());  // solves; store fails
  collector.wait_for(1);
  service.submit(line, collector.sink());  // still a miss; store succeeds
  collector.wait_for(2);
  service.submit(line, collector.sink());  // now a disk hit
  const std::vector<Value> responses = collector.wait_for(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].at("cache").as_string(), "miss");
  EXPECT_EQ(responses[1].at("cache").as_string(), "miss");
  EXPECT_EQ(responses[2].at("cache").as_string(), "hit");
  for (const Value& r : responses) EXPECT_TRUE(r.at("ok").as_bool());

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.cache.store_failures, 1);
  EXPECT_EQ(stats.cache.stores, 1);
  EXPECT_EQ(stats.solved, 2);
  EXPECT_EQ(stats.served, 1);
}

TEST(SolveServiceTest, FailedStoreLeavesMemoryLayerCold) {
  ServeOptions options;
  options.workers = 1;  // memory layer stays at its default (enabled)
  options.cache_dir = fresh_cache_dir("serve_store_fail_memory");
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("store-fail:1", options.faults, error));
  SolveService service(options);
  Collector collector;
  const std::string line = request_line(small_scenario(44), 0);

  service.submit(line, collector.sink());  // solves; store fails
  collector.wait_for(1);
  service.submit(line, collector.sink());
  const std::vector<Value> responses = collector.wait_for(2);
  ASSERT_EQ(responses.size(), 2u);
  // The failed store must leave the memory layer cold too: a --batch
  // run over the same directory would miss and re-solve, so a memory
  // hit here would report cache:"hit" for an entry the disk never
  // recorded.  The second request re-solves (miss) and stores.
  EXPECT_EQ(responses[0].at("cache").as_string(), "miss");
  EXPECT_EQ(responses[1].at("cache").as_string(), "miss");

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.memory_hits, 0);
  EXPECT_EQ(stats.solved, 2);
  EXPECT_EQ(stats.cache.store_failures, 1);
  EXPECT_EQ(stats.cache.stores, 1);
}

TEST(SolveServiceTest, InjectedCorruptLoadRecoversLikeBatch) {
  ServeOptions options;
  options.workers = 1;
  options.memory_entries = 0;
  options.cache_dir = fresh_cache_dir("serve_corrupt");
  SolveService service(options);
  Collector collector;
  const std::string line = request_line(small_scenario(41), 0);

  service.submit(line, collector.sink());  // cold solve + store
  collector.wait_for(1);
  // Damage the stored entry: the next lookup reads unparsable bytes.
  const std::string key =
      io::parse_request_line(line, options.default_method).key;
  std::ofstream(io::ResultCache(options.cache_dir).entry_path(key),
                std::ios::trunc)
      << "not json";
  service.submit(line, collector.sink());  // corrupt entry: re-solve
  collector.wait_for(2);
  service.submit(line, collector.sink());  // clean hit again
  const std::vector<Value> responses = collector.wait_for(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[1].at("cache").as_string(), "corrupt");
  EXPECT_EQ(responses[2].at("cache").as_string(), "hit");
  // The recovery carries the same warning the batch path emits.
  const std::string warnings =
      responses[1].at("result").at("diagnostics").dump();
  EXPECT_NE(warnings.find("unreadable"), std::string::npos);
  service.drain();
  EXPECT_EQ(service.stats().cache.corrupt, 1);
}

TEST(SolveServiceTest, FullQueueAndDrainingAnswerClassifiedOverload) {
  ServeOptions options;
  options.workers = 1;
  options.queue_depth = 1;
  std::string error;
  // Hold the single worker busy so follow-ups pile into the queue.
  ASSERT_TRUE(FaultPlan::parse("delay:0:400", options.faults, error));
  SolveService service(options);
  Collector collector;
  const auto submit_id = [&](int id) {
    service.submit(request_line(small_scenario(40 + id), id),
                   collector.sink());
  };
  submit_id(0);  // occupies the worker (delayed 400 ms)
  // Give the worker a beat to dequeue id 0 before filling the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  submit_id(1);  // fills the depth-1 queue (or is itself rejected on a
  submit_id(2);  // slow machine where id 0 is still queued)
  submit_id(3);
  const std::vector<Value> responses = collector.wait_for(4);
  ASSERT_EQ(responses.size(), 4u);
  // id 0 was accepted first and must be answered; of ids 1-3, at least
  // two bounce off the depth-1 queue with a classified overload.
  const Value* first = find_id(responses, 0);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(first->at("ok").as_bool());
  int overloads = 0;
  for (const int id : {1, 2, 3}) {
    const Value* r = find_id(responses, id);
    ASSERT_NE(r, nullptr);
    if (!r->at("ok").as_bool()) {
      EXPECT_EQ(r->at("kind").as_string(), "overload");
      ++overloads;
    }
  }
  EXPECT_GE(overloads, 2);

  service.drain();
  // Post-drain submissions are refused with the same classification.
  Collector late;
  service.submit(request_line(small_scenario(39), 8), late.sink());
  const std::vector<Value> refused = late.wait_for(1);
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_FALSE(refused[0].at("ok").as_bool());
  EXPECT_EQ(refused[0].at("kind").as_string(), "overload");
  EXPECT_EQ(service.stats().overloads, overloads + 1);
}

/// The id bytes a response line echoes: `{"schema":N,"id":<id>,"ok":...`.
std::string echoed_id(const std::string& response) {
  const std::string head =
      "{\"schema\":" + std::to_string(io::kSchemaVersion) + ",\"id\":";
  EXPECT_EQ(response.rfind(head, 0), 0u) << response;
  const std::size_t end = response.find(",\"ok\":", head.size());
  return response.substr(head.size(), end - head.size());
}

/// The id bytes run_batch echoes for `line`.
std::string batch_echoed_id(const std::string& line) {
  std::stringstream in(line + "\n");
  std::ostringstream out;
  (void)io::run_batch(in, out, io::BatchOptions{});
  return echoed_id(out.str());
}

/// `line` (written by request_line with id 0) with the id written as
/// `id`.
std::string with_id(std::string line, const std::string& id) {
  const std::string numeric = "\"id\":0,";
  const std::size_t at = line.find(numeric);
  EXPECT_NE(at, std::string::npos) << line;
  return line.replace(at, numeric.size(), "\"id\":" + id + ",");
}

// A string id longer than the inline buffer, and an object id whose
// duplicated key echoes at its first position with its last value.
const std::vector<std::pair<std::string, std::string>> kEchoIds = {
    {R"("request-0123456789abcdef")", R"("request-0123456789abcdef")"},
    {R"({"k":1,"n":{"x":[1,2.50]},"k":"last"})",
     R"({"k":"last","n":{"x":[1,2.5]}})"}};

TEST(SolveServiceTest, OverloadAnswerEchoesTheIdBytesBatchEchoes) {
  ServeOptions options;
  options.workers = 1;
  options.queue_depth = 1;
  std::string error;
  // Hold the single worker busy on id 0 while id 1 fills the queue.
  ASSERT_TRUE(FaultPlan::parse("delay:0:600", options.faults, error));
  SolveService service(options);
  Collector held;
  service.submit(request_line(small_scenario(40), 0), held.sink());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  service.submit(request_line(small_scenario(41), 1), held.sink());
  for (const auto& [id, echoed] : kEchoIds) {
    const std::string line = with_id(request_line(small_scenario(42), 0), id);
    Collector refused;
    service.submit(line, refused.sink());
    const std::vector<std::string> lines = refused.wait_for_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find(R"("kind":"overload")"), std::string::npos)
        << lines[0];
    EXPECT_EQ(echoed_id(lines[0]), echoed);
    EXPECT_EQ(echoed_id(lines[0]), batch_echoed_id(line));
  }
  service.drain();
  EXPECT_EQ(held.count(), 2u);
}

TEST(SolveServiceTest, TimeoutAnswerEchoesTheIdBytesBatchEchoes) {
  // No fault plan can delay a non-numeric id, so the solve itself
  // overruns: a 32-level profile takes far longer than the 1 ms deadline.
  ServeOptions options;
  options.workers = 1;
  options.deadline_ms = 1;
  SolveService service(options);
  std::vector<double> epsilons;
  for (int k = 0; k < 32; ++k) epsilons.push_back(std::pow(10.0, -3 - k / 6.0));
  int n_cross = 42;  // a new key each time: no warm layer answers
  for (const auto& [id, echoed] : kEchoIds) {
    const std::string line = with_id(
        profile_request_line(small_scenario(n_cross++), 0, epsilons), id);
    Collector timed_out;
    service.submit(line, timed_out.sink());
    const std::vector<std::string> lines = timed_out.wait_for_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find(R"("kind":"timeout")"), std::string::npos)
        << lines[0];
    EXPECT_EQ(echoed_id(lines[0]), echoed);
    EXPECT_EQ(echoed_id(lines[0]), batch_echoed_id(line));
  }
  service.drain();  // joins the abandoned workers
  EXPECT_EQ(service.stats().timeouts, 2);
}

TEST(SolveServiceTest, DrainAnswersEverythingAcceptedExactlyOnce) {
  ServeOptions options;
  options.workers = 4;
  options.cache_dir = fresh_cache_dir("serve_drain");
  SolveService service(options);
  Collector collector;
  constexpr int kRequests = 48;
  for (int i = 0; i < kRequests; ++i) {
    // 12 distinct keys cycled 4x: exercises all shards plus warm hits.
    service.submit(request_line(small_scenario(30 + (i % 12)), i),
                   collector.sink());
  }
  service.drain();  // must block until every request is answered
  EXPECT_EQ(collector.count(), static_cast<std::size_t>(kRequests));
  const std::vector<Value> responses = collector.wait_for(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    const Value* r = find_id(responses, i);
    ASSERT_NE(r, nullptr) << "request " << i << " was never answered";
    EXPECT_TRUE(r->at("ok").as_bool());
  }
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.received, kRequests);
  EXPECT_EQ(stats.answered, kRequests);
  EXPECT_EQ(stats.solved, 12);
  EXPECT_EQ(stats.served, kRequests - 12);
}

TEST(SolveServiceTest, ProfileRequestsAnswerThroughEveryWarmLayer) {
  // A profile request must flow through the same three layers as a
  // scalar one -- solve+store, in-memory warm hit, disk hit after a
  // reload -- and every answer must carry identical profile bits.
  ServeOptions options;
  options.workers = 1;
  options.cache_dir = fresh_cache_dir("serve_profile_warm");
  SolveService service(options);
  Collector collector;
  Value eps = Value::array();
  eps.push_back(io::encode_double(1e-3));
  eps.push_back(io::encode_double(1e-9));
  Value req = Value::object();
  req.set("schema", Value::number(io::kSchemaVersion))
      .set("id", Value::number(0))
      .set("scenario", io::encode_scenario(small_scenario(50)))
      .set("epsilons", std::move(eps));
  const std::string line = req.dump();

  service.submit(line, collector.sink());
  collector.wait_for(1);
  service.submit(line, collector.sink());  // memory hit
  collector.wait_for(2);
  service.reload();                        // drops the memory layer
  service.submit(line, collector.sink());  // disk hit
  const std::vector<Value> responses = collector.wait_for(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].at("cache").as_string(), "miss");
  EXPECT_EQ(responses[1].at("cache").as_string(), "hit");
  EXPECT_EQ(responses[2].at("cache").as_string(), "hit");
  EXPECT_EQ(responses[2].at("profile").dump(),
            responses[1].at("profile").dump());
  const e2e::DelayProfile cold =
      io::decode_delay_profile(ReadBack(responses[0].at("profile")));
  const e2e::DelayProfile warm =
      io::decode_delay_profile(ReadBack(responses[1].at("profile")));
  ASSERT_EQ(warm.levels.size(), cold.levels.size());
  for (std::size_t i = 0; i < cold.levels.size(); ++i) {
    EXPECT_EQ(warm.levels[i].delay_ms, cold.levels[i].delay_ms);
    EXPECT_EQ(warm.levels[i].sigma, cold.levels[i].sigma);
  }
  EXPECT_EQ(responses[1].at("profile").dump(),
            responses[0].at("profile").dump());

  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.solved, 1);
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.memory_hits, 1);
  EXPECT_EQ(stats.cache.stores, 1);
  EXPECT_EQ(stats.cache.hits, 1);
}

TEST(SolveServiceTest, ProfileAnswersMatchBatchBytesLiterally) {
  // The serve path must answer a profile request with run_batch's exact
  // response document, byte for byte (scripts/check_serve.sh cmp's the
  // two the same way).
  const std::string line =
      profile_request_line(small_scenario(45), 3, {1e-4, 1e-7});

  ServeOptions options;
  options.workers = 1;
  SolveService service(options);
  Collector collector;
  service.submit(line, collector.sink());
  const std::vector<Value> served = collector.wait_for(1);
  ASSERT_EQ(served.size(), 1u);
  service.drain();

  std::stringstream in(line + "\n");
  std::ostringstream out;
  (void)io::run_batch(in, out, io::BatchOptions{});
  const std::vector<Value> batched = {Value::parse(
      out.str().substr(0, out.str().find('\n')))};

  EXPECT_EQ(served[0].dump(), batched[0].dump());
}

TEST(SolveServiceTest, BatchAndServeClassifyEveryRequestKindAlike) {
  // One classification rule for both kinds on both paths: a scenario
  // that decodes but fails validate() answers ok=true with the
  // classified +inf bound -- on every level of a profile -- and a valid
  // scalar request answers its bound; serve and batch agree byte for
  // byte, with and without a cache attached.
  e2e::Scenario invalid = small_scenario(50);
  invalid.hops = 0;
  std::vector<double> grid;
  for (int k = 0; k < 16; ++k) grid.push_back(std::pow(10.0, -1.0 - k * 0.5));
  const std::vector<std::string> lines = {
      request_line(invalid, 0), profile_request_line(invalid, 1, grid),
      request_line(small_scenario(40), 2)};

  for (const bool with_cache : {false, true}) {
    SCOPED_TRACE(with_cache ? "with cache dir" : "without cache dir");
    ServeOptions options;
    options.workers = 1;
    if (with_cache) options.cache_dir = fresh_cache_dir("serve_classify");
    SolveService service(options);
    Collector collector;
    for (const std::string& line : lines) {
      service.submit(line, collector.sink());
    }
    const std::vector<Value> served = collector.wait_for(lines.size());
    ASSERT_EQ(served.size(), lines.size());
    service.drain();
    EXPECT_EQ(service.stats().failed, 2);

    std::unique_ptr<io::ResultCache> cache;
    if (with_cache) {
      cache = std::make_unique<io::ResultCache>(
          fresh_cache_dir("batch_classify"));
    }
    io::BatchOptions batch_options;
    batch_options.cache = cache.get();
    std::stringstream in;
    for (const std::string& line : lines) in << line << "\n";
    std::ostringstream out;
    const io::BatchSummary summary = io::run_batch(in, out, batch_options);
    EXPECT_EQ(summary.failed, 2);
    std::vector<Value> batched;
    std::istringstream text(out.str());
    for (std::string line; std::getline(text, line);) {
      batched.push_back(Value::parse(line));
    }
    ASSERT_EQ(batched.size(), lines.size());

    for (int id = 0; id < static_cast<int>(lines.size()); ++id) {
      const Value* s = find_id(served, id);
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(s->dump(), batched[static_cast<std::size_t>(id)].dump())
          << "id " << id;
    }
    const e2e::BoundResult scalar =
        io::decode_bound_result(ReadBack(batched[0].at("result")));
    EXPECT_TRUE(std::isinf(scalar.delay_ms));
    EXPECT_EQ(scalar.diagnostics.error, diag::SolveErrorKind::kInvalidScenario);
    const e2e::DelayProfile profile =
        io::decode_delay_profile(ReadBack(batched[1].at("profile")));
    ASSERT_EQ(profile.levels.size(), grid.size());
    for (const e2e::BoundResult& level : profile.levels) {
      EXPECT_TRUE(std::isinf(level.delay_ms));
      EXPECT_EQ(level.diagnostics.error,
                diag::SolveErrorKind::kInvalidScenario);
    }
    EXPECT_TRUE(
        std::isfinite(io::decode_bound_result(ReadBack(batched[2].at("result"))).delay_ms));
  }
}

TEST(SolveServiceTest, MemoryCapIsOnePerWorkerBudgetAcrossKinds) {
  // memory_entries caps a worker's warm layer as a whole: with a cap of
  // one, warming profile B evicts scalar A, so the repeat of A is a disk
  // hit, not a memory hit.
  ServeOptions options;
  options.workers = 1;
  options.memory_entries = 1;
  options.cache_dir = fresh_cache_dir("serve_memory_cap");
  SolveService service(options);
  Collector collector;
  const std::string a = request_line(small_scenario(50), 0);
  service.submit(a, collector.sink());
  collector.wait_for(1);
  service.submit(profile_request_line(small_scenario(55), 1, {1e-3, 1e-6}),
                 collector.sink());
  collector.wait_for(2);
  service.submit(a, collector.sink());
  const std::vector<Value> responses = collector.wait_for(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[2].at("cache").as_string(), "hit");
  service.drain();
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.solved, 2);
  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(stats.memory_hits, 0);
  EXPECT_EQ(stats.cache.hits, 1);
}

// The stop flag of the in-process listener below.  As in the CLI, only
// a signal handler sets it -- here one run on the listener's own thread,
// so the flag is never written by another thread.
volatile std::sig_atomic_t g_listener_stop = 0;
void stop_listener(int) { g_listener_stop = 1; }

/// run_socket_server on its own thread; destruction stops it (SIGUSR2
/// delivered to that thread) and joins it.
class ListenerThread {
 public:
  ListenerThread(SolveService& service, std::string path) {
    struct sigaction stop {};
    stop.sa_handler = stop_listener;
    ::sigaction(SIGUSR2, &stop, &previous_);
    g_listener_stop = 0;
    options_.socket_path = std::move(path);
    options_.stop = &g_listener_stop;
    thread_ = std::thread(
        [this, &service] { (void)run_socket_server(service, options_, err_); });
  }
  ~ListenerThread() {
    ::pthread_kill(thread_.native_handle(), SIGUSR2);
    thread_.join();
    ::sigaction(SIGUSR2, &previous_, nullptr);
  }
  ListenerThread(const ListenerThread&) = delete;
  ListenerThread& operator=(const ListenerThread&) = delete;

 private:
  struct sigaction previous_ {};
  ListenerOptions options_;
  std::ostringstream err_;
  std::thread thread_;  // last: it uses the members above
};

TEST(LineFramer, KeepsAtMostTheLimitOfAnOverlongLine) {
  // The listener's framing: lines split at '\n' across any chunking, and
  // an over-long line handed on once at the limit plus one byte while
  // the framer never holds more than that.
  LineFramer framer;
  std::vector<std::string> lines;
  const LineFramer::Submit submit = [&](std::string line) {
    lines.push_back(std::move(line));
  };
  framer.feed("a\nb", submit);
  framer.feed("c\n\n", submit);
  const std::string block(4096, 'x');
  std::size_t most = 0;
  for (std::size_t fed = 0; fed < 3 * io::kMaxRequestLineBytes;
       fed += block.size()) {
    framer.feed(block, submit);
    most = std::max(most, framer.buffered());
  }
  framer.feed("x\nnext\n", submit);
  framer.feed(std::string(io::kMaxRequestLineBytes, 'y') + "\n", submit);
  framer.feed(std::string(io::kMaxRequestLineBytes + 1, 'z'), submit);
  framer.feed("\ntail", submit);
  framer.finish(submit);
  EXPECT_LE(most, io::kMaxRequestLineBytes + 1);
  ASSERT_EQ(lines.size(), 8u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "bc");
  EXPECT_EQ(lines[2], "");
  EXPECT_EQ(lines[3], std::string(io::kMaxRequestLineBytes + 1, 'x'));
  EXPECT_EQ(lines[4], "next");
  EXPECT_EQ(lines[5], std::string(io::kMaxRequestLineBytes, 'y'));
  EXPECT_EQ(lines[6], std::string(io::kMaxRequestLineBytes + 1, 'z'));
  EXPECT_EQ(lines[7], "tail");
}

TEST(SolveServiceTest, OverlongLineIsRefusedAndTheConnectionKeepsAnswering) {
  // A line longer than io::kMaxRequestLineBytes is answered once, with a
  // null id, before anything of it is parsed -- whether it reaches the
  // service directly or through the socket listener, which keeps at
  // most the limit (plus one byte) of it and drops the rest as it
  // arrives, then answers the next line on the same connection.
  const std::string refused =
      R"({"schema":7,"id":null,"ok":false,"error":"batch: request line )"
      R"(longer than 1048576 bytes"})";
  const std::string next = R"({"id":2,"schema":5})";
  const std::string next_answer =
      R"({"schema":7,"id":2,"ok":false,"error":"codec: schema 5 != )"
      R"(supported 7"})";
  ServeOptions options;
  options.workers = 1;
  SolveService service(options);
  Collector collector;
  service.submit(std::string(io::kMaxRequestLineBytes + 1, ' '),
                 collector.sink());
  ASSERT_EQ(collector.wait_for(1).size(), 1u);
  EXPECT_EQ(collector.wait_for(1)[0].dump(), refused);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "dnc_overlong.sock")
          .string();
  ListenerThread listener(service, path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::copy(path.begin(), path.end(), addr.sun_path);
  bool connected = false;
  for (int attempt = 0; attempt < 200 && !connected; ++attempt) {
    connected = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) == 0;
    if (!connected) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(connected);
  // Three times the limit in 64 kB writes, then the next request.
  const std::string block(1 << 16, 'x');
  std::string payload;
  for (std::size_t sent = 0; sent < 3 * io::kMaxRequestLineBytes;
       sent += block.size()) {
    payload += block;
  }
  payload += "\n" + next + "\n";
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n =
        ::send(fd, payload.data() + sent, payload.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string answers;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    answers.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(answers, refused + "\n" + next_answer + "\n");
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.received, 3);
  EXPECT_EQ(stats.parse_errors, 3);
  EXPECT_EQ(stats.answered, 3);
}

}  // namespace
}  // namespace deltanc::serve
