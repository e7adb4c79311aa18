// The serve layer, measured in the traced run of workload `batch_warm`
// (its untraced runs gate io; this adds the per-layer serve metrics).
// The shipped `deltanc_cli --serve` runs as a child process (fresh
// socket and cache per phase), driven open-loop by one client thread
// over two connections.  Poisson arrivals draw scalar and 16-level
// profile requests Zipf-popular over more keys than the server's
// --serve-memory holds; the set-up pre-fills the most popular keys into
// the disk cache, so requests split between memory hits, disk hits and
// never-seen keys (solve + store).  Warm hits (io + transport) set the
// p50, cold solves and the queue wait behind them the p99.
//
// Phases, each against a fresh server and a fresh copy of the pre-filled
// cache: a light fixed rate, a heavy fixed rate, then a rate ladder that
// climbs until p99 breaks the latency limit or the backlog grows.
// These figures are per-layer, not gated: on a shared VM, host steal
// moves open-loop tail latency far more than any bound could allow.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "common.h"
#include "e2e/solver.h"
#include "io/batch.h"
#include "serve/service.h"

namespace perfbench {

namespace {

using namespace deltanc;
namespace fs = std::filesystem;

// Keys are popularity ranks of a Zipf-Mandelbrot law (s = 2.5, q = 40:
// no key above 4 % of the traffic) over 100k keys.  The 500 most popular
// are pre-filled on disk; the servers' memory layer holds 256 (2 workers
// x 128).  So ~95 % of requests are memory hits, ~3 % disk hits and ~2 %
// never-seen tail keys -- at a steady rate through a phase, because tail
// keys are almost never drawn twice.  With ~2 % cold solves the p99 sits
// inside the cold-solve latencies and the p50 among warm hits.
constexpr std::size_t kRanks = 100000;
constexpr std::size_t kPrefillRanks = 500;
constexpr double kZipfExponent = 2.5;
constexpr double kZipfOffset = 40.0;
/// The hot set (ranks below this) alternates shards by construction, so
/// the load split across workers does not hinge on where a seed's few
/// most popular keys happen to hash.
constexpr std::size_t kBalancedRanks = 256;
/// Short paths only: a cold solve then costs 1-20 ms instead of up to
/// 0.4 s (long EDF chains), so the p99 is not set by a handful of keys.
constexpr int kMaxHops = 3;
constexpr int kWorkers = 2;
constexpr int kMemoryEntries = 128;
constexpr double kLowRate = 1000.0;    ///< requests/s
constexpr double kHighRate = 3000.0;  ///< requests/s
constexpr double kLadderStart = 3000.0;
constexpr double kLadderStep = 1.15;
constexpr int kLadderRungs = 16;
constexpr double kSloP99Ms = 50.0;
constexpr double kDrainSeconds = 30.0;  ///< wait for answers after sending

/// The seeded keyspace.  The key of popularity rank r is generated from
/// (seed, r) alone and materialized on first draw; its reference answer
/// (a cold run_batch of the same line, normalized) is computed once the
/// key is first needed for a check.
struct Keyspace {
  std::uint64_t seed = 0;
  Zipf zipf{kRanks, kZipfExponent, kZipfOffset};
  std::vector<Request> requests;
  std::vector<std::string> expected;  ///< "" until referenced
  std::vector<bool> prefilled;
  std::unordered_map<std::size_t, std::size_t> by_rank;  ///< rank -> index
  fs::path ref_dir;
  fs::path prefill_dir;

  std::size_t index_of_rank(std::size_t rank) {
    const auto it = by_rank.find(rank);
    if (it != by_rank.end()) return it->second;
    Rng rng(seed * 0x2545F4914F6CDD1Dull + rank);
    // Every fifth rank (from rank 2) is a profile: which popular keys are
    // 16-level profiles is fixed by construction, not by the seed.
    Request req;
    do {
      req = make_requests(rng, 1, rank % 5 == 2 ? 1.0 : 0.0, kMaxHops)[0];
    } while (rank < kBalancedRanks &&
             io::ResultCache::shard_of(req.key, kWorkers) !=
                 static_cast<int>(rank % kWorkers));
    requests.push_back(std::move(req));
    expected.emplace_back();
    prefilled.push_back(rank < kPrefillRanks);
    by_rank.emplace(rank, requests.size() - 1);
    return requests.size() - 1;
  }

  /// Cold run_batch over the keys in `keys` that have no reference yet,
  /// storing into the reference cache directory.
  void reference(const std::vector<std::size_t>& keys, int threads) {
    std::vector<std::size_t> todo;
    std::string text;
    for (const std::size_t k : keys) {
      if (!expected[k].empty()) continue;
      expected[k] = "pending";
      todo.push_back(k);
      text += with_id(requests[k].payload, 0) + "\n";
    }
    if (todo.empty()) return;
    io::ResultCache cache(ref_dir);
    std::istringstream in(text);
    std::ostringstream out;
    io::BatchOptions options;
    options.threads = threads;
    options.cache = &cache;
    (void)io::run_batch(in, out, options);
    std::istringstream lines(out.str());
    std::string line;
    for (const std::size_t k : todo) {
      if (!std::getline(lines, line)) throw std::runtime_error("reference batch incomplete");
      expected[k] = normalize_response(line, true);
    }
  }
};

struct Schedule {
  std::vector<double> due_ms;
  std::vector<std::size_t> key;
  std::vector<std::string> lines;  ///< framed request lines
};

/// Poisson arrivals at `rate` for `seconds`, keys drawn from the Zipf law.
Schedule make_schedule(std::uint64_t seed, Keyspace& ks, double rate,
                       double seconds) {
  Rng rng(seed);
  Schedule s;
  double t = 0.0;
  for (;;) {
    t += rng.exponential(rate) * 1e3;
    if (t >= seconds * 1e3) break;
    const std::size_t key = ks.index_of_rank(ks.zipf.draw(rng));
    s.due_ms.push_back(t);
    s.key.push_back(key);
    s.lines.push_back(with_id(ks.requests[key].payload,
                              static_cast<long long>(s.lines.size())) +
                      "\n");
  }
  return s;
}

struct Server {
  pid_t pid = -1;
  fs::path socket;
  fs::path err;
  double ready_ms = 0.0;  ///< spawn until the socket accepts
};

int connect_to(const fs::path& socket) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = socket.string();
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Copies the pre-filled cache into `dir`, starts the server on a fresh
/// socket there and waits until it accepts.
Server start_server(const Context& ctx, const Keyspace& ks, const fs::path& dir) {
  Server s;
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy(ks.prefill_dir, dir / "cache", fs::copy_options::recursive);
  ::sync();  // keep writeback of the copy out of the measured phase
  s.socket = dir / "s.sock";
  s.err = dir / "serve.err";
  const std::vector<std::string> args = {
      ctx.cli.string(), "--serve", s.socket.string(), "--serve-workers",
      std::to_string(kWorkers), "--serve-memory", std::to_string(kMemoryEntries),
      "--serve-queue", "1000000", "--cache-dir", (dir / "cache").string()};
  const auto spawn = Clock::now();
  s.pid = ::fork();
  if (s.pid < 0) throw std::runtime_error("fork failed");
  if (s.pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    (void)::setpriority(PRIO_PROCESS, 0, 0);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    const int err_fd = ::open(s.err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (null_fd >= 0) ::dup2(null_fd, 1);
    if (err_fd >= 0) ::dup2(err_fd, 2);
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  for (;;) {
    const int fd = connect_to(s.socket);
    if (fd >= 0) {
      ::close(fd);
      break;
    }
    int status = 0;
    if (::waitpid(s.pid, &status, WNOHANG) == s.pid) {
      s.pid = -1;
      throw std::runtime_error("deltanc_cli --serve exited during start-up; see " +
                               s.err.string());
    }
    if (seconds_since(spawn) > 20.0) {
      throw std::runtime_error("deltanc_cli --serve never accepted");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  s.ready_ms = ms_between(spawn, Clock::now());
  return s;
}

/// SIGTERM, wait (SIGKILL after 20 s), and the "key=value" counters of
/// the server's stderr summary lines.
std::map<std::string, double> stop_server(Server& s) {
  std::map<std::string, double> stats;
  if (s.pid <= 0) return stats;
  ::kill(s.pid, SIGTERM);
  const auto t0 = Clock::now();
  int status = 0;
  while (::waitpid(s.pid, &status, WNOHANG) != s.pid) {
    if (seconds_since(t0) > 20.0) {
      ::kill(s.pid, SIGKILL);
      ::waitpid(s.pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  s.pid = -1;
  std::istringstream in(read_file(s.err));
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    char* end = nullptr;
    const double v = std::strtod(token.c_str() + eq + 1, &end);
    if (end != nullptr && *end == '\0') stats[token.substr(0, eq)] = v;
  }
  stats["clean_exit"] = WIFEXITED(status) && WEXITSTATUS(status) == 0 ? 1 : 0;
  return stats;
}

struct Phase {
  std::vector<double> latency_ms;  ///< due -> response
  std::vector<double> late_ms;     ///< due -> actually sent
  std::vector<std::string> responses;
  long long duplicates = 0;
  long long answered = 0;
  bool backlog = false;
  double p50 = 0, p99 = 0;
  Server server;
  std::map<std::string, double> stats;
};

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("server hung up mid-send");
    sent += static_cast<std::size_t>(n);
  }
}

/// Extracts the echoed numeric id of a response line (-1 if absent).
long long response_id(const std::string& line) {
  const std::size_t at = line.find("\"id\":");
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + 5, nullptr, 10);
}

/// The open-loop client: one thread, two connections (alternating).  It
/// sends every request at its due time, reads responses as they come,
/// and stops when all are answered or the drain time runs out.  Latency
/// is timed from the due time.  p50/p99 are the medians of the p50/p99
/// of `windows` consecutive runs of requests (in due order).
void drive(const Schedule& s, const fs::path& socket, std::size_t windows, Phase& p,
           Tracer& tracer) {
  const std::size_t n = s.lines.size();
  int fds[2] = {connect_to(socket), connect_to(socket)};
  if (fds[0] < 0 || fds[1] < 0) throw std::runtime_error("cannot connect");
  std::vector<double> recv_ms(n, -1.0);
  p.late_ms.assign(n, 0.0);
  p.responses.assign(n, std::string());
  std::string buffers[2];
  char chunk[1 << 16];
  std::size_t next = 0;
  double answered_by_last_send = -1;
  const auto t0 = Clock::now();
  const std::int64_t t0_ns = now_ns();
  const double stop_ms = (n > 0 ? s.due_ms.back() : 0.0) + kDrainSeconds * 1e3;
  while (p.answered < static_cast<long long>(n)) {
    double now = ms_between(t0, Clock::now());
    if (now > stop_ms) break;
    while (next < n && s.due_ms[next] <= now) {
      send_all(fds[next % 2], s.lines[next]);
      p.late_ms[next] = ms_between(t0, Clock::now()) - s.due_ms[next];
      ++next;
      if (next == n) answered_by_last_send = static_cast<double>(p.answered);
    }
    now = ms_between(t0, Clock::now());
    const double wait_ms = next < n ? std::max(0.0, s.due_ms[next] - now) : 50.0;
    pollfd pfd[2] = {{fds[0], POLLIN, 0}, {fds[1], POLLIN, 0}};
    const timespec timeout{static_cast<time_t>(wait_ms / 1e3),
                           static_cast<long>(std::fmod(wait_ms, 1e3) * 1e6)};
    if (::ppoll(pfd, 2, &timeout, nullptr) <= 0) continue;
    for (int c = 0; c < 2; ++c) {
      if ((pfd[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got = ::recv(fds[c], chunk, sizeof chunk, 0);
      if (got <= 0) continue;
      const double at = ms_between(t0, Clock::now());
      std::string& buf = buffers[c];
      buf.append(chunk, static_cast<std::size_t>(got));
      std::size_t begin = 0;
      for (;;) {
        const std::size_t nl = buf.find('\n', begin);
        if (nl == std::string::npos) break;
        std::string line = buf.substr(begin, nl - begin);
        begin = nl + 1;
        const long long id = response_id(line);
        if (id < 0 || id >= static_cast<long long>(next) ||
            recv_ms[static_cast<std::size_t>(id)] >= 0) {
          ++p.duplicates;  // unattributable or repeated: a wrong answer
          continue;
        }
        const auto i = static_cast<std::size_t>(id);
        recv_ms[i] = at;
        p.responses[i] = std::move(line);
        ++p.answered;
        if (tracer.enabled) {
          tracer.add("serve.request",
                     t0_ns + static_cast<std::int64_t>(s.due_ms[i] * 1e6),
                     t0_ns + static_cast<std::int64_t>(at * 1e6), -1, id);
        }
      }
      buf.erase(0, begin);
    }
  }
  ::close(fds[0]);
  ::close(fds[1]);
  // An unanswered request counts as answered when the drain gave up.
  for (std::size_t i = 0; i < n; ++i) {
    p.latency_ms.push_back((recv_ms[i] >= 0 ? recv_ms[i] : stop_ms) - s.due_ms[i]);
  }
  // One burst of expensive cold solves on a shard, or one stall of a
  // shared box, moves one window, not the figure.
  const std::size_t window = std::max<std::size_t>(1, n / windows);
  p.p50 = windowed_median(p.latency_ms, window,
                          [](const std::vector<double>& w) { return percentile(w, 0.50); });
  p.p99 = windowed_median(p.latency_ms, window,
                          [](const std::vector<double>& w) { return percentile(w, 0.99); });
  // Growing backlog: the answers fell behind the sends by the time the
  // last request went out, or the last quarter's latency trends far
  // above the first quarter's.
  const std::size_t q = p.latency_ms.size() / 4;
  if (q > 0) {
    const std::vector<double> first(p.latency_ms.begin(), p.latency_ms.begin() + q);
    const std::vector<double> last(p.latency_ms.end() - q, p.latency_ms.end());
    if (median(last) > 2.0 * median(first) + 5.0) p.backlog = true;
  }
  if (answered_by_last_send >= 0 && answered_by_last_send < 0.9 * static_cast<double>(n)) {
    p.backlog = true;
  }
}

/// Every request answered exactly once, ok, and equal to run_batch's
/// answer for the same line (modulo id, cache tag, outcome counters and
/// scan/refine timings).
void verify(const Keyspace& ks, const Schedule& s, const Phase& p, Report& report) {
  std::unordered_set<std::string> verified;  // id-stripped raw lines
  for (std::size_t i = 0; i < s.lines.size(); ++i) {
    const std::string& line = p.responses[i];
    if (line.empty()) {
      report.check(false, "request " + std::to_string(i) + " never answered");
      continue;
    }
    if (line.find("\"ok\":true") == std::string::npos) {
      report.check(false, "request refused or failed: " + line.substr(0, 200));
      continue;
    }
    const std::size_t at = line.find("\"id\":");
    const std::size_t comma = line.find(',', at);
    std::string stripped = std::to_string(s.key[i]) + ":" + line.substr(0, at) +
                           line.substr(comma + 1);
    if (verified.count(stripped) != 0) {
      report.check(true, "");
      continue;
    }
    const bool same = normalize_response(line, true) == ks.expected[s.key[i]];
    report.check(same, "served answer differs from run_batch's for key " +
                           std::to_string(s.key[i]));
    if (same) verified.insert(std::move(stripped));
  }
  report.check(p.duplicates == 0, "duplicate or unattributable responses");
}

Phase run_phase(const Context& ctx, Keyspace& ks, const Schedule& s,
                const std::string& name, std::size_t windows, Report& report,
                Tracer& tracer) {
  Phase p;
  p.server = start_server(ctx, ks, ctx.work / name);
  try {
    drive(s, p.server.socket, windows, p, tracer);
  } catch (...) {
    stop_server(p.server);
    throw;
  }
  p.stats = stop_server(p.server);
  report.check(p.stats["clean_exit"] == 1, "server did not drain cleanly");
  ks.reference(s.key, ctx.threads);
  verify(ks, s, p, report);
  const double late_p99 = percentile(p.late_ms, 0.99);
  std::fprintf(stderr,
               "serve_mixed: phase %s: %zu requests, p50 %.3f ms, p99 %.3f ms, "
               "solved %.0f, served %.0f (memory %.0f), late p99 %.3f ms%s%s\n",
               name.c_str(), s.lines.size(), p.p50, p.p99, p.stats["solved"],
               p.stats["served"], p.stats["memory_hits"], late_p99,
               p.backlog ? ", growing backlog" : "",
               late_p99 > 5.0 ? ", LOAD GENERATOR FELL BEHIND" : "");
  return p;
}

double refusals(const Phase& p) {
  const auto get = [&](const char* k) {
    const auto it = p.stats.find(k);
    return it == p.stats.end() ? 0.0 : it->second;
  };
  return get("overloads") + get("timeouts") + get("worker_losses") + get("dropped");
}

/// Highest ladder rate whose p99 meets the limit with no growing backlog.
/// The ladder climbs until two rungs in a row fail (one failing rung
/// below capacity is a transient, not the limit).  The figure is
/// interpolated between the highest passing rung and the failing one
/// above it (log rate vs log p99; halfway when only the backlog failed),
/// so it is continuous rather than a ladder step.
double max_rps_slo(const Context& ctx, Keyspace& ks, Report& report,
                   Tracer& tracer, std::vector<Phase>& rungs) {
  std::vector<double> rates;
  std::vector<bool> pass;
  int failures_in_a_row = 0;
  double rate = kLadderStart;
  for (int k = 0; k < kLadderRungs && failures_in_a_row < 2; ++k, rate *= kLadderStep) {
    const Schedule s = make_schedule(ctx.seed * 131 + 17 + static_cast<std::uint64_t>(k),
                                     ks, rate, ctx.seconds * 0.07);
    rungs.push_back(run_phase(ctx, ks, s, "rung" + std::to_string(k), 3, report,
                              tracer));
    rates.push_back(rate);
    pass.push_back(rungs.back().p99 <= kSloP99Ms && !rungs.back().backlog);
    failures_in_a_row = pass.back() ? 0 : failures_in_a_row + 1;
  }
  int best = -1;
  for (int k = 0; k < static_cast<int>(pass.size()); ++k) {
    if (pass[static_cast<std::size_t>(k)]) best = k;
  }
  if (best < 0) return rates[0] * kSloP99Ms / rungs[0].p99;
  const auto b = static_cast<std::size_t>(best);
  if (b + 1 == rates.size()) return rates[b];
  const double lo = std::max(rungs[b].p99, 1e-3);
  const double hi = rungs[b + 1].p99;
  const double x = hi > kSloP99Ms ? std::clamp((std::log(kSloP99Ms) - std::log(lo)) /
                                                   (std::log(hi) - std::log(lo)),
                                               0.0, 1.0)
                                  : 0.5;
  return rates[b] * std::pow(rates[b + 1] / rates[b], x);
}

/// Set-up: the pre-fill keys solved by one cold run_batch into the
/// reference directory (which also yields their reference answers), then
/// copied into the template every phase's cache starts from.
void prefill(const Context& ctx, Keyspace& ks) {
  ks.ref_dir = ctx.work / "reference";
  ks.prefill_dir = ctx.work / "prefill";
  fs::remove_all(ks.ref_dir);
  fs::remove_all(ks.prefill_dir);
  std::vector<std::size_t> keys;
  for (std::size_t r = 0; r < kPrefillRanks; ++r) keys.push_back(ks.index_of_rank(r));
  ks.reference(keys, ctx.threads);
  fs::create_directories(ks.prefill_dir);
  const io::ResultCache ref(ks.ref_dir);
  for (const std::size_t k : keys) {
    const fs::path entry = ref.entry_path(ks.requests[k].key);
    fs::copy_file(entry, ks.prefill_dir / entry.filename(),
                  fs::copy_options::overwrite_existing);
  }
}

/// In-process replay of a schedule against a SolveService with the same
/// options as the served one: open-loop (submit at due times) or
/// closed-loop (one request at a time: its standalone cost).  Returns
/// per-request latency in ms (due or submit -> sink).
std::vector<double> replay(const Context& ctx, const Keyspace& ks, const Schedule& s,
                           bool open_loop, Tracer& tracer) {
  const fs::path dir = ctx.work / (open_loop ? "inproc-open" : "inproc-closed");
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy(ks.prefill_dir, dir / "cache", fs::copy_options::recursive);
  serve::ServeOptions options;
  options.workers = kWorkers;
  options.queue_depth = 1000000;
  options.memory_entries = kMemoryEntries;
  options.cache_dir = dir / "cache";
  const std::size_t n = s.lines.size();
  std::vector<std::atomic<std::int64_t>> done(n);
  for (auto& d : done) d.store(0);
  std::vector<std::int64_t> start(n, 0);
  std::atomic<std::size_t> answered{0};
  {
    serve::SolveService service(options);
    const auto t0 = Clock::now();
    const std::int64_t t0_ns = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      if (open_loop) {
        std::this_thread::sleep_until(
            t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(s.due_ms[i] * 1e6)));
        start[i] = t0_ns + static_cast<std::int64_t>(s.due_ms[i] * 1e6);
      } else {
        start[i] = now_ns();
      }
      const std::string line = s.lines[i].substr(0, s.lines[i].size() - 1);
      const Scoped span(tracer, "serve.SolveService::submit", -1,
                        static_cast<std::int64_t>(i));
      service.submit(line, [&done, &answered, i](const std::string&) {
        done[i].store(now_ns());
        answered.fetch_add(1);
        answered.notify_all();
      });
      if (!open_loop) {
        for (std::size_t a = answered.load(); a <= i; a = answered.load()) {
          answered.wait(a);
        }
      }
    }
    service.drain();
  }
  std::vector<double> latency(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    latency[i] = static_cast<double>(done[i].load() - start[i]) * 1e-6;
    tracer.add(open_loop ? "serve.service_open" : "serve.service_closed", start[i],
               done[i].load(), -1, static_cast<std::int64_t>(i));
  }
  return latency;
}

}  // namespace

Report run_serve_layer(const Context& ctx) {
  Report report;
  Keyspace ks;
  ks.seed = ctx.seed;
  prefill(ctx, ks);
  ::sync();
  // The load generator gets a scheduling edge over the server it drives
  // (the server is reset to the default in the child), so a busy box
  // delays the server's work rather than the sends; lateness is still
  // measured and reported.  Best effort: without the privilege it stays.
  (void)::setpriority(PRIO_PROCESS, 0, -5);
  Tracer off;

  const Schedule low = make_schedule(ctx.seed * 131 + 1, ks, kLowRate, ctx.seconds * 0.1);
  const Schedule high = make_schedule(ctx.seed * 131 + 2, ks, kHighRate, ctx.seconds * 0.4);

  // Per-shard request counts of the heavy schedule (deterministic).
  std::vector<double> shard(kWorkers, 0.0);
  for (const std::size_t k : high.key) {
    shard[static_cast<std::size_t>(
        io::ResultCache::shard_of(ks.requests[k].key, kWorkers))] += 1;
  }
  report.exact["serve.shard_imbalance"] =
      *std::max_element(shard.begin(), shard.end()) / mean(shard);

  const Phase pl = run_phase(ctx, ks, low, "low", 1, report, off);
  const Phase ph = run_phase(ctx, ks, high, "high", 8, report, off);
  std::vector<Phase> rungs;
  const double max_rps = max_rps_slo(ctx, ks, report, off, rungs);
  std::vector<double> ready = {pl.server.ready_ms, ph.server.ready_ms};
  double refused = refusals(pl) + refusals(ph);
  for (const Phase& r : rungs) {
    ready.push_back(r.server.ready_ms);
    refused += refusals(r);
  }

  // Traced: the heavy phase again with client spans, the same schedule
  // replayed in-process (open and closed loop), and the heavy phase's
  // never-seen keys solved standalone.
  Tracer tracer;
  tracer.enabled = true;
  (void)run_phase(ctx, ks, high, "high-traced", 8, report, tracer);
  const std::vector<double> service = replay(ctx, ks, high, true, tracer);
  const std::vector<double> standalone = replay(ctx, ks, high, false, tracer);
  std::vector<double> queue_wait;
  for (std::size_t i = 0; i < service.size(); ++i) {
    queue_wait.push_back(std::max(0.0, service[i] - standalone[i]));
  }
  std::vector<double> cold_ms;
  std::unordered_set<std::size_t> seen;
  for (const std::size_t k : high.key) {
    if (ks.prefilled[k] || !seen.insert(k).second) continue;
    const io::ParsedRequestLine req =
        io::parse_request_line(with_id(ks.requests[k].payload, 0), e2e::Method::kExactOpt);
    const Solver solver(req.options);
    const auto t0 = Clock::now();
    if (req.is_profile()) {
      const Scoped span(tracer, "e2e.Solver::solve_profile", -1, static_cast<std::int64_t>(k));
      (void)solver.solve_profile(req.scenario, req.epsilons);
    } else {
      const Scoped span(tracer, "e2e.Solver::solve", -1, static_cast<std::int64_t>(k));
      (void)solver.solve(req.scenario);
    }
    cold_ms.push_back(ms_between(t0, Clock::now()));
  }
  tracer.write_jsonl(ctx.work / "trace-serve_mixed.jsonl");

  auto& m = report.metrics;
  for (const auto& [name, value] : report.exact) m[name] = value;
  const double answered = ph.stats.count("answered") ? ph.stats.at("answered") : 0.0;
  const double served = ph.stats.count("served") ? ph.stats.at("served") : 0.0;
  const double memory = ph.stats.count("memory_hits") ? ph.stats.at("memory_hits") : 0.0;
  const double solved = ph.stats.count("solved") ? ph.stats.at("solved") : 0.0;
  m["serve.p50_ms_low"] = pl.p50;
  m["serve.p99_ms_low"] = pl.p99;
  m["serve.p50_ms_high"] = ph.p50;
  m["serve.p99_ms_high"] = ph.p99;
  m["serve.max_rps_slo"] = max_rps;
  m["serve.service_ms.p50"] = percentile(service, 0.50);
  m["serve.service_ms.p99"] = percentile(service, 0.99);
  m["serve.transport_ms.p50"] = ph.p50 - percentile(service, 0.50);
  m["serve.queue_wait_ms.p99"] = percentile(queue_wait, 0.99);
  m["serve.memory_hit_ratio"] = memory / answered;
  m["serve.disk_hit_ratio"] = (served - memory) / answered;
  m["serve.solve_ratio"] = solved / answered;
  m["serve.refusals"] = refused;
  m["cli.ready_ms"] = median(ready);
  m["loadgen.late_ms.p99"] = percentile(ph.late_ms, 0.99);
  m["e2e.cold_solve_ms.p99"] = percentile(cold_ms, 0.99);
  return report;
}

}  // namespace perfbench
