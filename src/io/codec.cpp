#include "io/codec.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string_view>

namespace deltanc::io {

namespace {

using json::Node;
using json::Value;

/// Rounds a JSON number to the nearest integer, rejecting values that
/// are not integral (counts must not silently truncate).
long long decode_integer(Node v, const char* what) {
  const double d = v.as_number();
  if (d != std::floor(d) || std::fabs(d) > 9.007199254740992e15) {
    throw CodecError(std::string("codec: ") + what +
                     " must be an integer (got " + v.dump() + ")");
  }
  return static_cast<long long>(d);
}

int decode_int(Node v, const char* what) {
  const long long n = decode_integer(v, what);
  if (n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    throw CodecError(std::string("codec: ") + what + " out of int range");
  }
  return static_cast<int>(n);
}

/// The members of `obj` named in `names`, read in one pass
/// (json::Node::lookup).
template <std::size_t N>
std::array<Node, N> fields(Node obj,
                           const std::array<std::string_view, N>& names) {
  std::array<Node, N> out{};
  obj.lookup(names, out);
  return out;
}

/// `v`, or absent when it is missing OR explicitly null (both mean "use
/// the default").
Node optional(Node v) { return v && !v.is_null() ? v : Node(); }

e2e::Method decode_method(Node v) {
  const std::string_view name = v.as_string();
  if (name == "exact") return e2e::Method::kExactOpt;
  if (name == "paper-k") return e2e::Method::kPaperK;
  throw CodecError("codec: unknown method \"" + std::string(name) + "\"");
}

sched::EdfFactors decode_edf_factors(Node edf) {
  return sched::EdfFactors{decode_double(edf.at("own_factor")),
                           decode_double(edf.at("cross_factor"))};
}

}  // namespace

// ----- doubles -----------------------------------------------------------

Value encode_double(double v) {
  if (std::isfinite(v)) return Value::number(v);
  if (std::isnan(v)) return Value::string("nan");
  return Value::string(v > 0 ? "inf" : "-inf");
}

double decode_double(Node v) {
  if (v.is_number()) return v.as_number();
  if (v.is_string()) {
    const std::string_view s = v.as_string();
    if (s.empty()) throw CodecError("codec: empty string where double expected");
    // Locale-independent (std::from_chars): decimal, inf/-inf/nan...
    double parsed = 0.0;
    if (sched::parse_strict_double(s, parsed)) return parsed;
    // ...plus C99 hexfloat ("0x1.6p+4"), so hand-written goldens keep
    // decoding.  from_chars hex format takes no 0x prefix of its own, but
    // it does take a sign and "inf"/"nan", so the mantissa must start
    // right after the prefix ("0x-1p3" and "0xinf" are not hexfloats).
    std::string_view body = s;
    const bool negative = body.front() == '-';
    if (negative) body.remove_prefix(1);
    if (body.size() > 2 && body[0] == '0' &&
        (body[1] == 'x' || body[1] == 'X') &&
        (std::isxdigit(static_cast<unsigned char>(body[2])) != 0 ||
         body[2] == '.')) {
      body.remove_prefix(2);
      const auto [ptr, ec] = std::from_chars(
          body.data(), body.data() + body.size(), parsed,
          std::chars_format::hex);
      if (ec == std::errc{} && ptr == body.data() + body.size()) {
        return negative ? -parsed : parsed;
      }
    }
    throw CodecError("codec: unparseable double \"" + std::string(s) + "\"");
  }
  throw CodecError("codec: expected a number or numeric string, got " +
                   v.dump());
}

// ----- enums -------------------------------------------------------------

sched::SchedulerSpec decode_scheduler(Node v) {
  if (v.is_string()) {
    sched::SchedulerSpec spec;
    if (!sched::parse_scheduler(v.as_string(), spec)) {
      throw SchemaError("codec: unknown scheduler \"" +
                        std::string(v.as_string()) + "\"");
    }
    return spec;
  }
  if (!v.is_object()) {
    throw CodecError("codec: scheduler must be an object or name string, "
                     "got " + v.dump());
  }
  static constexpr std::array<std::string_view, 4> kNames = {
      "kind", "delta", "edf", "params"};
  const auto f = fields(v, kNames);
  sched::SchedulerKind kind{};
  const std::string_view name = json::required(f[0], kNames[0]).as_string();
  if (!sched::scheduler_kind_from_name(name, kind)) {
    throw SchemaError("codec: unknown scheduler kind \"" + std::string(name) +
                      "\"");
  }
  sched::SchedulerSpec spec(kind);
  if (kind == sched::SchedulerKind::kDelta) {
    const Node delta = optional(f[1]);
    spec = sched::SchedulerSpec::fixed_delta(delta ? decode_double(delta)
                                                   : 0.0);
  }
  if (const Node edf = optional(f[2])) {
    spec.set_edf_factors(decode_edf_factors(edf));
  }
  // Absent in schema-1/2 documents: the default equal two-class split.
  if (const Node params = optional(f[3])) {
    const Node::Elements items = params.items();
    if (items.size() < 2 || items.size() > sched::ClassWeights::kMaxClasses) {
      throw CodecError("codec: scheduler params need 2.." +
                       std::to_string(sched::ClassWeights::kMaxClasses) +
                       " entries (got " + std::to_string(items.size()) + ")");
    }
    sched::ClassWeights weights{};
    weights.values = {};
    weights.count = items.size();
    std::size_t i = 0;
    for (const Node item : items) {
      const double w = decode_double(item);
      if (!(w > 0.0) || !std::isfinite(w)) {
        throw CodecError("codec: scheduler params must be positive finite "
                         "(got " + item.dump() + ")");
      }
      weights.values[i++] = w;
    }
    spec.set_weights(weights);
  }
  return spec;
}

void require_schema(Node v) {
  const Node schema = v.is_object() ? v.find("schema") : Node();
  if (!schema) {
    throw SchemaError("codec: document carries no \"schema\" field");
  }
  const long long got = decode_integer(schema, "schema");
  if (got != kSchemaVersion) {
    throw SchemaError("codec: schema " + std::to_string(got) +
                      " != supported " + std::to_string(kSchemaVersion));
  }
}

// ----- Scenario ----------------------------------------------------------

e2e::Scenario decode_scenario(Node v) {
  if (!v.is_object()) {
    throw CodecError("codec: scenario must be an object, got " + v.dump());
  }
  static constexpr std::array<std::string_view, 8> kNames = {
      "capacity", "hops",    "source",    "n_through",
      "n_cross",  "epsilon", "scheduler", "edf"};
  const auto f = fields(v, kNames);
  e2e::Scenario sc;
  sc.capacity = decode_double(json::required(f[0], kNames[0]));
  sc.hops = decode_int(json::required(f[1], kNames[1]), "hops");
  if (const Node source = optional(f[2])) {
    // The MmooSource constructor re-validates the probabilities, so a
    // corrupted document cannot produce an inconsistent source object.
    sc.source = traffic::MmooSource(decode_double(source.at("peak_kb")),
                                    decode_double(source.at("p11")),
                                    decode_double(source.at("p22")));
  }
  sc.n_through = decode_int(json::required(f[3], kNames[3]), "n_through");
  sc.n_cross = decode_int(json::required(f[4], kNames[4]), "n_cross");
  sc.epsilon = decode_double(json::required(f[5], kNames[5]));
  sc.scheduler = decode_scheduler(json::required(f[6], kNames[6]));
  // Schema-1 documents (and hand-written ones using name strings) carry
  // the EDF factors in a sibling "edf" object; fold them into the spec.
  if (const Node edf = optional(f[7])) {
    sc.scheduler.set_edf_factors(decode_edf_factors(edf));
  }
  return sc;
}

// ----- SolveStats --------------------------------------------------------

e2e::SolveStats decode_solve_stats(Node v) {
  static constexpr std::array<std::string_view, 12> kNames = {
      "optimize_evals",  "eb_evals",        "sigma_evals",
      "edf_iterations",  "edf_converged",   "retries",
      "fallbacks",       "batched_evals",   "warm_start_hits",
      "brackets_reused", "profile_levels",  "profile_chain_hits"};
  const auto f = fields(v, kNames);
  e2e::SolveStats stats;
  stats.optimize_evals =
      decode_integer(json::required(f[0], kNames[0]), "stats");
  stats.eb_evals = decode_integer(json::required(f[1], kNames[1]), "stats");
  stats.sigma_evals = decode_integer(json::required(f[2], kNames[2]), "stats");
  stats.edf_iterations = decode_int(json::required(f[3], kNames[3]), "stats");
  stats.edf_converged = json::required(f[4], kNames[4]).as_bool();
  stats.retries = decode_int(json::required(f[5], kNames[5]), "stats");
  stats.fallbacks = decode_int(json::required(f[6], kNames[6]), "stats");
  std::int64_t* const optional_counts[] = {
      &stats.batched_evals, &stats.warm_start_hits, &stats.brackets_reused,
      &stats.profile_levels, &stats.profile_chain_hits};
  for (std::size_t i = 0; i < std::size(optional_counts); ++i) {
    if (const Node count = optional(f[7 + i])) {
      *optional_counts[i] = decode_integer(count, "stats");
    }
  }
  return stats;
}

// ----- Diagnostics -------------------------------------------------------

namespace {

diag::SolveErrorKind decode_kind(Node v) {
  diag::SolveErrorKind kind{};
  const std::string_view name = v.as_string();
  if (!diag::solve_error_from_name(name, kind)) {
    throw CodecError("codec: unknown error kind \"" + std::string(name) +
                     "\"");
  }
  return kind;
}

}  // namespace

diag::Diagnostics decode_diagnostics(Node v) {
  static constexpr std::array<std::string_view, 3> kNames = {
      "error", "message", "warnings"};
  const auto f = fields(v, kNames);
  diag::Diagnostics d;
  d.error = decode_kind(json::required(f[0], kNames[0]));
  d.message = json::required(f[1], kNames[1]).as_string();
  for (const Node w : json::required(f[2], kNames[2]).items()) {
    d.warnings.push_back(
        diag::Warning{decode_kind(w.at("kind")),
                      std::string(w.at("message").as_string())});
  }
  return d;
}

// ----- BoundResult -------------------------------------------------------

e2e::BoundResult decode_bound_result(Node v) {
  static constexpr std::array<std::string_view, 7> kNames = {
      "delay_ms", "gamma", "s", "sigma", "delta", "stats", "diagnostics"};
  const auto f = fields(v, kNames);
  e2e::BoundResult r{};
  r.delay_ms = decode_double(json::required(f[0], kNames[0]));
  r.gamma = decode_double(json::required(f[1], kNames[1]));
  r.s = decode_double(json::required(f[2], kNames[2]));
  r.sigma = decode_double(json::required(f[3], kNames[3]));
  r.delta = decode_double(json::required(f[4], kNames[4]));
  if (const Node stats = optional(f[5])) r.stats = decode_solve_stats(stats);
  if (const Node d = optional(f[6])) r.diagnostics = decode_diagnostics(d);
  return r;
}

// ----- DelayProfile ------------------------------------------------------

e2e::DelayProfile decode_delay_profile(Node v) {
  if (!v.is_object()) {
    throw CodecError("codec: delay profile must be an object, got " +
                     v.dump());
  }
  static constexpr std::array<std::string_view, 3> kNames = {
      "epsilons", "levels", "stats"};
  const auto f = fields(v, kNames);
  e2e::DelayProfile p;
  const Node::Elements epsilons = json::required(f[0], kNames[0]).items();
  p.epsilons.reserve(epsilons.size());
  for (const Node eps : epsilons) p.epsilons.push_back(decode_double(eps));
  const Node::Elements levels = json::required(f[1], kNames[1]).items();
  p.levels.reserve(levels.size());
  for (const Node r : levels) p.levels.push_back(decode_bound_result(r));
  if (p.epsilons.size() != p.levels.size()) {
    throw CodecError("codec: delay profile has " +
                     std::to_string(p.epsilons.size()) + " epsilons but " +
                     std::to_string(p.levels.size()) + " levels");
  }
  if (const Node stats = optional(f[2])) p.stats = decode_solve_stats(stats);
  return p;
}

// ----- the result writer -------------------------------------------------

namespace {

// Each helper appends `member` -- the literal that opens the field,
// `{"name":` or `,"name":` -- and then the value.

/// Counts go through the double formatter, as the wire has always
/// carried them.
void put_count(std::string& out, const char* member, std::int64_t n) {
  out += member;
  json::append_number(out, static_cast<double>(n));
}

/// encode_double's bytes: finite as a number, +/-inf and NaN as strings.
void put_double(std::string& out, const char* member, double v) {
  out += member;
  if (std::isfinite(v)) {
    json::append_number(out, v);
  } else {
    json::append_quoted(out, std::isnan(v) ? "nan" : v > 0 ? "inf" : "-inf");
  }
}

void put_string(std::string& out, const char* member, std::string_view s) {
  out += member;
  json::append_quoted(out, s);
}

}  // namespace

void append_json(std::string& out, const e2e::SolveStats& stats) {
  put_count(out, "{\"optimize_evals\":", stats.optimize_evals);
  put_count(out, ",\"eb_evals\":", stats.eb_evals);
  put_count(out, ",\"sigma_evals\":", stats.sigma_evals);
  put_count(out, ",\"edf_iterations\":", stats.edf_iterations);
  out += stats.edf_converged ? ",\"edf_converged\":true"
                             : ",\"edf_converged\":false";
  put_count(out, ",\"retries\":", stats.retries);
  put_count(out, ",\"fallbacks\":", stats.fallbacks);
  put_count(out, ",\"batched_evals\":", stats.batched_evals);
  put_count(out, ",\"warm_start_hits\":", stats.warm_start_hits);
  put_count(out, ",\"brackets_reused\":", stats.brackets_reused);
  put_count(out, ",\"profile_levels\":", stats.profile_levels);
  put_count(out, ",\"profile_chain_hits\":", stats.profile_chain_hits);
  out += '}';
}

void append_json(std::string& out, const diag::Diagnostics& d) {
  put_string(out, "{\"error\":", diag::solve_error_name(d.error));
  put_string(out, ",\"message\":", d.message);
  out += ",\"warnings\":[";
  for (std::size_t i = 0; i < d.warnings.size(); ++i) {
    put_string(out, i == 0 ? "{\"kind\":" : ",{\"kind\":",
               diag::solve_error_name(d.warnings[i].kind));
    put_string(out, ",\"message\":", d.warnings[i].message);
    out += '}';
  }
  out += "]}";
}

void append_json(std::string& out, const e2e::BoundResult& r) {
  put_double(out, "{\"delay_ms\":", r.delay_ms);
  put_double(out, ",\"gamma\":", r.gamma);
  put_double(out, ",\"s\":", r.s);
  put_double(out, ",\"sigma\":", r.sigma);
  put_double(out, ",\"delta\":", r.delta);
  out += ",\"stats\":";
  append_json(out, r.stats);
  out += ",\"diagnostics\":";
  append_json(out, r.diagnostics);
  out += '}';
}

void append_json(std::string& out, const e2e::DelayProfile& p) {
  out += "{\"epsilons\":[";
  for (std::size_t i = 0; i < p.epsilons.size(); ++i) {
    put_double(out, i == 0 ? "" : ",", p.epsilons[i]);
  }
  out += "],\"levels\":[";
  for (std::size_t i = 0; i < p.levels.size(); ++i) {
    if (i > 0) out += ',';
    append_json(out, p.levels[i]);
  }
  out += "],\"stats\":";
  append_json(out, p.stats);
  out += '}';
}

const char* payload_field(const e2e::BoundResult&) noexcept {
  return "result";
}

const char* payload_field(const e2e::DelayProfile&) noexcept {
  return "profile";
}

// ----- the request writer ------------------------------------------------

void append_json(std::string& out, const sched::SchedulerSpec& s) {
  put_string(out, "{\"kind\":", sched::scheduler_kind_name(s.kind()));
  put_double(out, ",\"delta\":", s.delta());
  put_double(out, ",\"edf\":{\"own_factor\":", s.edf_factors().own_factor);
  put_double(out, ",\"cross_factor\":", s.edf_factors().cross_factor);
  out += "},\"params\":[";
  for (std::size_t i = 0; i < s.weights().size(); ++i) {
    put_double(out, i == 0 ? "" : ",", s.weights()[i]);
  }
  out += "]}";
}

void append_json(std::string& out, const e2e::Scenario& sc) {
  put_double(out, "{\"capacity\":", sc.capacity);
  put_count(out, ",\"hops\":", sc.hops);
  put_double(out, ",\"source\":{\"peak_kb\":", sc.source.peak_kb());
  put_double(out, ",\"p11\":", sc.source.p11());
  put_double(out, ",\"p22\":", sc.source.p22());
  put_count(out, "},\"n_through\":", sc.n_through);
  put_count(out, ",\"n_cross\":", sc.n_cross);
  put_double(out, ",\"epsilon\":", sc.epsilon);
  out += ",\"scheduler\":";
  append_json(out, sc.scheduler);
  out += '}';
}

void append_json(std::string& out, const SolveOptions& options) {
  put_string(out, "{\"method\":",
             options.method == e2e::Method::kPaperK ? "paper-k" : "exact");
  out += ",\"scheduler\":";
  if (options.scheduler.has_value()) {
    append_json(out, *options.scheduler);
  } else {
    out += "null";
  }
  if (options.delta.has_value()) {
    put_double(out, ",\"delta\":", *options.delta);
  } else {
    out += ",\"delta\":null";
  }
  put_string(out, ",\"warm_start\":",
             options.warm_start == e2e::WarmStart::kWarm ? "warm" : "cold");
  out += '}';
}

namespace {

/// The written bytes of `x` read back as a document.
template <typename T>
Value parse_written(const T& x) {
  std::string text;
  append_json(text, x);
  return Value::parse(text);
}

}  // namespace

Value encode_scenario(const e2e::Scenario& sc) { return parse_written(sc); }

Value encode_solve_options(const SolveOptions& options) {
  return parse_written(options);
}

// ----- SolveOptions / cache key ------------------------------------------

SolveOptions decode_solve_options(Node v) {
  static constexpr std::array<std::string_view, 4> kNames = {
      "method", "scheduler", "delta", "warm_start"};
  const auto f = fields(v, kNames);
  SolveOptions options;
  if (const Node m = optional(f[0])) options.method = decode_method(m);
  if (const Node s = optional(f[1])) options.scheduler = decode_scheduler(s);
  if (const Node d = optional(f[2])) options.delta = decode_double(d);
  if (const Node w = optional(f[3])) {
    const std::string_view name = w.as_string();
    if (name == "warm") {
      options.warm_start = e2e::WarmStart::kWarm;
    } else if (name == "cold") {
      options.warm_start = e2e::WarmStart::kCold;
    } else {
      throw CodecError("codec: unknown warm_start \"" + std::string(name) +
                       "\"");
    }
  }
  return options;
}

namespace {

/// Folds the scheduler override into the scenario so "FIFO scenario
/// overridden to EDF" and "EDF scenario" key identically -- they solve
/// identically.
void canonicalize_solve(e2e::Scenario& sc, SolveOptions& options) {
  if (options.scheduler.has_value()) {
    sc.scheduler = *options.scheduler;
    options.scheduler.reset();
  }
}

/// `{"kind":"<kind>","scenario":...,"options":...` -- the head both keys
/// share, written straight to bytes.
std::string key_head(const char* kind, const e2e::Scenario& sc,
                     const SolveOptions& options, std::size_t reserve) {
  std::string key;
  key.reserve(reserve);
  key += "{\"kind\":\"";
  key += kind;
  key += "\",\"scenario\":";
  append_json(key, sc);
  key += ",\"options\":";
  append_json(key, options);
  return key;
}

}  // namespace

std::string solve_cache_key(const e2e::Scenario& sc,
                            const SolveOptions& options) {
  SolveOptions canonical = options;
  e2e::Scenario effective = sc;
  canonicalize_solve(effective, canonical);
  std::string key = key_head("solve", effective, canonical, 512);
  key += '}';
  return key;
}

std::string profile_cache_key(const e2e::Scenario& sc,
                              std::span<const double> epsilons,
                              const SolveOptions& options) {
  SolveOptions canonical = options;
  e2e::Scenario effective = sc;
  canonicalize_solve(effective, canonical);
  // A profile solves the grid, never the scenario's scalar epsilon, so
  // two requests differing only there must share the entry: pin the
  // scenario epsilon to the first grid level.
  if (!epsilons.empty()) effective.epsilon = epsilons.front();
  std::string key = key_head("profile", effective, canonical,
                             512 + 24 * epsilons.size());
  key += ",\"epsilons\":[";
  for (std::size_t i = 0; i < epsilons.size(); ++i) {
    put_double(key, i == 0 ? "" : ",", epsilons[i]);
  }
  key += "]}";
  return key;
}

}  // namespace deltanc::io
