#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/scenario.h"
#include "io/batch.h"
#include "io/codec.h"

namespace perfbench {

namespace json = deltanc::io::json;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

double Rng::exponential(double rate) { return -std::log1p(-uniform()) / rate; }

Zipf::Zipf(std::size_t n, double s, double q) : cdf_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1) + q, s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::draw(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t Tracer::begin(const char* name, std::int64_t parent,
                           std::int64_t request) {
  if (!enabled) return -1;
  spans_.push_back(Span{name, now_ns(), 0, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

void Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::int64_t parent, std::int64_t request) {
  if (!enabled) return;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
}

std::vector<double> Tracer::self_ms(const std::string& name) const {
  // Duration minus the children's durations (the recorder is
  // single-threaded, so the children of one span never overlap).
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(static_cast<double>(self[i]) * 1e-6);
  }
  return out;
}

void Tracer::write_jsonl(const std::filesystem::path& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return sum(values) / static_cast<double>(values.size());
}

double windowed_median(
    const std::vector<double>& values, std::size_t window,
    const std::function<double(const std::vector<double>&)>& reduce) {
  std::vector<double> per_window;
  for (std::size_t i = 0; i == 0 || i + window <= values.size(); i += window) {
    const std::size_t end =
        i + 2 * window > values.size() ? values.size() : i + window;
    per_window.push_back(
        reduce(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(i),
                                   values.begin() + static_cast<std::ptrdiff_t>(end))));
  }
  return median(per_window);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

namespace {

/// Zeroes the wall-clock and cache-outcome fields of one stats object.
void scrub_stats(json::Value& stats) {
  for (const char* field :
       {"scan_ms", "refine_ms", "cache_hits", "cache_misses", "cache_stale"}) {
    if (stats.find(field) != nullptr) stats.set(field, json::Value::number(0));
  }
}

/// Rebuilds `v` with scrub_stats applied to every "stats" member.
json::Value scrub(const json::Value& v, bool drop_id) {
  if (v.is_array()) {
    json::Value out = json::Value::array();
    for (const json::Value& item : v.items()) out.push_back(scrub(item, false));
    return out;
  }
  if (!v.is_object()) return v;
  json::Value out = json::Value::object();
  for (const auto& [key, member] : v.members()) {
    if (key == "cache" || (drop_id && key == "id")) continue;
    json::Value copy = scrub(member, false);
    if (key == "stats" && copy.is_object()) scrub_stats(copy);
    out.set(key, std::move(copy));
  }
  return out;
}

}  // namespace

std::string normalize_response(const std::string& line, bool drop_id) {
  return scrub(json::Value::parse(line), drop_id).dump();
}

Request make_request(Rng& rng, int hops, const char* scheduler, double eps,
                     bool profile) {
  deltanc::sched::SchedulerSpec spec;
  if (!deltanc::sched::parse_scheduler(scheduler, spec)) {
    throw std::logic_error("bad scheduler name");
  }
  const deltanc::e2e::Scenario sc =
      deltanc::ScenarioBuilder()
          .hops(hops)
          .through_utilization(rng.uniform(0.10, 0.20))
          .cross_utilization(rng.uniform(0.10, 0.60))
          .violation_probability(eps)
          .scheduler(spec)
          .build();
  json::Value doc = json::Value::object();
  doc.set("schema", json::Value::number(deltanc::io::kSchemaVersion))
      .set("scenario", deltanc::io::encode_scenario(sc));
  if (profile) {
    deltanc::SolveOptions options;
    options.warm_start = deltanc::e2e::WarmStart::kWarm;
    json::Value levels = json::Value::array();
    for (int k = 0; k < 16; ++k) {
      levels.push_back(json::Value::number(std::pow(10.0, -9.0 + 0.4 * k)));
    }
    doc.set("options", deltanc::io::encode_solve_options(options))
        .set("epsilons", std::move(levels));
  }
  Request req;
  req.payload = doc.dump();
  req.key = deltanc::io::parse_request_line(req.payload,
                                            deltanc::e2e::Method::kExactOpt)
                .key;
  return req;
}

std::vector<Request> make_requests(Rng& rng, std::size_t n,
                                   double profile_share, int max_hops) {
  const std::size_t hop_choices = static_cast<std::size_t>(
      std::upper_bound(std::begin(kRequestHops), std::end(kRequestHops), max_hops) -
      std::begin(kRequestHops));
  std::vector<Request> out;
  std::set<std::string> keys;
  while (out.size() < n) {
    const bool profile = rng.uniform() < profile_share;
    const char* scheduler = kRequestSchedulers[rng.below(4)];
    const int hops = kRequestHops[rng.below(hop_choices)];
    Request req = make_request(rng, hops, scheduler, kRequestEps[rng.below(3)], profile);
    if (!keys.insert(req.key).second) continue;
    out.push_back(std::move(req));
  }
  return out;
}

std::string with_id(const std::string& payload, long long id) {
  std::string out = payload;
  out.insert(out.size() - 1, ",\"id\":" + std::to_string(id));
  return out;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace perfbench
