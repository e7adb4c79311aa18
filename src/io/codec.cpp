#include "io/codec.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string_view>

namespace deltanc::io {

namespace {

using json::Value;

/// Rounds a JSON number to the nearest integer, rejecting values that
/// are not integral (counts must not silently truncate).
long long decode_integer(const Value& v, const char* what) {
  const double d = v.as_number();
  if (d != std::floor(d) || std::fabs(d) > 9.007199254740992e15) {
    throw CodecError(std::string("codec: ") + what +
                     " must be an integer (got " + v.dump() + ")");
  }
  return static_cast<long long>(d);
}

int decode_int(const Value& v, const char* what) {
  const long long n = decode_integer(v, what);
  if (n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    throw CodecError(std::string("codec: ") + what + " out of int range");
  }
  return static_cast<int>(n);
}

/// Optional-field lookup: returns nullptr when the key is absent OR
/// explicitly null (both mean "use the default").
const Value* find_optional(const Value& obj, std::string_view key) {
  const Value* v = obj.find(key);
  return (v == nullptr || v->is_null()) ? nullptr : v;
}

}  // namespace

// ----- doubles -----------------------------------------------------------

Value encode_double(double v) {
  if (std::isfinite(v)) return Value::number(v);
  if (std::isnan(v)) return Value::string("nan");
  return Value::string(v > 0 ? "inf" : "-inf");
}

double decode_double(const Value& v) {
  if (v.is_number()) return v.as_number();
  if (v.is_string()) {
    const std::string& s = v.as_string();
    if (s.empty()) throw CodecError("codec: empty string where double expected");
    // Locale-independent (std::from_chars): decimal, inf/-inf/nan...
    double parsed = 0.0;
    if (sched::parse_strict_double(s, parsed)) return parsed;
    // ...plus C99 hexfloat ("0x1.6p+4"), so hand-written goldens keep
    // decoding.  from_chars hex format takes no 0x prefix of its own.
    std::string_view body = s;
    const bool negative = body.front() == '-';
    if (negative) body.remove_prefix(1);
    if (body.size() > 2 && body[0] == '0' && (body[1] == 'x' || body[1] == 'X')) {
      body.remove_prefix(2);
      const auto [ptr, ec] = std::from_chars(
          body.data(), body.data() + body.size(), parsed,
          std::chars_format::hex);
      if (ec == std::errc{} && ptr == body.data() + body.size()) {
        return negative ? -parsed : parsed;
      }
    }
    throw CodecError("codec: unparseable double \"" + s + "\"");
  }
  throw CodecError("codec: expected a number or numeric string, got " +
                   v.dump());
}

// ----- enums -------------------------------------------------------------

Value encode_scheduler(const sched::SchedulerSpec& s) {
  Value edf = Value::object();
  edf.set("own_factor", encode_double(s.edf_factors().own_factor))
      .set("cross_factor", encode_double(s.edf_factors().cross_factor));
  Value params = Value::array();
  for (std::size_t i = 0; i < s.weights().size(); ++i) {
    params.push_back(encode_double(s.weights()[i]));
  }
  Value out = Value::object();
  out.set("kind", Value::string(std::string(
              sched::scheduler_kind_name(s.kind()))))
      .set("delta", encode_double(s.delta()))
      .set("edf", std::move(edf))
      .set("params", std::move(params));
  return out;
}

sched::SchedulerSpec decode_scheduler(const Value& v) {
  if (v.is_string()) {
    sched::SchedulerSpec spec;
    if (!sched::parse_scheduler(v.as_string(), spec)) {
      throw SchemaError("codec: unknown scheduler \"" + v.as_string() +
                        "\"");
    }
    return spec;
  }
  if (!v.is_object()) {
    throw CodecError("codec: scheduler must be an object or name string, "
                     "got " + v.dump());
  }
  sched::SchedulerKind kind{};
  const std::string& name = v.at("kind").as_string();
  if (!sched::scheduler_kind_from_name(name, kind)) {
    throw SchemaError("codec: unknown scheduler kind \"" + name + "\"");
  }
  sched::SchedulerSpec spec(kind);
  if (kind == sched::SchedulerKind::kDelta) {
    const Value* delta = find_optional(v, "delta");
    spec = sched::SchedulerSpec::fixed_delta(
        delta != nullptr ? decode_double(*delta) : 0.0);
  }
  if (const Value* edf = find_optional(v, "edf")) {
    spec.set_edf_factors(
        sched::EdfFactors{decode_double(edf->at("own_factor")),
                          decode_double(edf->at("cross_factor"))});
  }
  // Absent in schema-1/2 documents: the default equal two-class split.
  if (const Value* params = find_optional(v, "params")) {
    const std::vector<Value>& items = params->items();
    if (items.size() < 2 || items.size() > sched::ClassWeights::kMaxClasses) {
      throw CodecError("codec: scheduler params need 2.." +
                       std::to_string(sched::ClassWeights::kMaxClasses) +
                       " entries (got " + std::to_string(items.size()) + ")");
    }
    sched::ClassWeights weights{};
    weights.values = {};
    weights.count = items.size();
    for (std::size_t i = 0; i < items.size(); ++i) {
      const double w = decode_double(items[i]);
      if (!(w > 0.0) || !std::isfinite(w)) {
        throw CodecError("codec: scheduler params must be positive finite "
                         "(got " + items[i].dump() + ")");
      }
      weights.values[i] = w;
    }
    spec.set_weights(weights);
  }
  return spec;
}

Value encode_method(e2e::Method m) {
  return Value::string(m == e2e::Method::kPaperK ? "paper-k" : "exact");
}

e2e::Method decode_method(const Value& v) {
  const std::string& name = v.as_string();
  if (name == "exact") return e2e::Method::kExactOpt;
  if (name == "paper-k") return e2e::Method::kPaperK;
  throw CodecError("codec: unknown method \"" + name + "\"");
}

void require_schema(const Value& v) {
  const Value* schema = v.is_object() ? v.find("schema") : nullptr;
  if (schema == nullptr) {
    throw SchemaError("codec: document carries no \"schema\" field");
  }
  const long long got = decode_integer(*schema, "schema");
  if (got != kSchemaVersion) {
    throw SchemaError("codec: schema " + std::to_string(got) +
                      " != supported " + std::to_string(kSchemaVersion));
  }
}

// ----- Scenario ----------------------------------------------------------

Value encode_scenario(const e2e::Scenario& sc) {
  Value source = Value::object();
  source.set("peak_kb", encode_double(sc.source.peak_kb()))
      .set("p11", encode_double(sc.source.p11()))
      .set("p22", encode_double(sc.source.p22()));
  Value out = Value::object();
  out.set("capacity", encode_double(sc.capacity))
      .set("hops", Value::number(sc.hops))
      .set("source", std::move(source))
      .set("n_through", Value::number(sc.n_through))
      .set("n_cross", Value::number(sc.n_cross))
      .set("epsilon", encode_double(sc.epsilon))
      .set("scheduler", encode_scheduler(sc.scheduler));
  return out;
}

e2e::Scenario decode_scenario(const Value& v) {
  if (!v.is_object()) {
    throw CodecError("codec: scenario must be an object, got " + v.dump());
  }
  e2e::Scenario sc;
  sc.capacity = decode_double(v.at("capacity"));
  sc.hops = decode_int(v.at("hops"), "hops");
  if (const Value* source = find_optional(v, "source")) {
    // The MmooSource constructor re-validates the probabilities, so a
    // corrupted document cannot produce an inconsistent source object.
    sc.source = traffic::MmooSource(decode_double(source->at("peak_kb")),
                                    decode_double(source->at("p11")),
                                    decode_double(source->at("p22")));
  }
  sc.n_through = decode_int(v.at("n_through"), "n_through");
  sc.n_cross = decode_int(v.at("n_cross"), "n_cross");
  sc.epsilon = decode_double(v.at("epsilon"));
  sc.scheduler = decode_scheduler(v.at("scheduler"));
  // Schema-1 documents (and hand-written ones using name strings) carry
  // the EDF factors in a sibling "edf" object; fold them into the spec.
  if (const Value* edf = find_optional(v, "edf")) {
    sc.scheduler.set_edf_factors(
        sched::EdfFactors{decode_double(edf->at("own_factor")),
                          decode_double(edf->at("cross_factor"))});
  }
  return sc;
}

// ----- SolveStats --------------------------------------------------------

Value encode_solve_stats(const e2e::SolveStats& stats) {
  Value out = Value::object();
  out.set("optimize_evals",
          Value::number(static_cast<double>(stats.optimize_evals)))
      .set("eb_evals", Value::number(static_cast<double>(stats.eb_evals)))
      .set("sigma_evals",
           Value::number(static_cast<double>(stats.sigma_evals)))
      .set("edf_iterations", Value::number(stats.edf_iterations))
      .set("edf_converged", Value::boolean(stats.edf_converged))
      .set("retries", Value::number(stats.retries))
      .set("fallbacks", Value::number(stats.fallbacks))
      .set("batched_evals",
           Value::number(static_cast<double>(stats.batched_evals)))
      .set("warm_start_hits",
           Value::number(static_cast<double>(stats.warm_start_hits)))
      .set("brackets_reused",
           Value::number(static_cast<double>(stats.brackets_reused)))
      .set("profile_levels",
           Value::number(static_cast<double>(stats.profile_levels)))
      .set("profile_chain_hits",
           Value::number(static_cast<double>(stats.profile_chain_hits)));
  return out;
}

e2e::SolveStats decode_solve_stats(const Value& v) {
  e2e::SolveStats stats;
  stats.optimize_evals = decode_integer(v.at("optimize_evals"), "stats");
  stats.eb_evals = decode_integer(v.at("eb_evals"), "stats");
  stats.sigma_evals = decode_integer(v.at("sigma_evals"), "stats");
  stats.edf_iterations = decode_int(v.at("edf_iterations"), "stats");
  stats.edf_converged = v.at("edf_converged").as_bool();
  stats.retries = decode_int(v.at("retries"), "stats");
  stats.fallbacks = decode_int(v.at("fallbacks"), "stats");
  if (const Value* f = find_optional(v, "batched_evals")) {
    stats.batched_evals = decode_integer(*f, "stats");
  }
  if (const Value* f = find_optional(v, "warm_start_hits")) {
    stats.warm_start_hits = decode_integer(*f, "stats");
  }
  if (const Value* f = find_optional(v, "brackets_reused")) {
    stats.brackets_reused = decode_integer(*f, "stats");
  }
  if (const Value* f = find_optional(v, "profile_levels")) {
    stats.profile_levels = decode_integer(*f, "stats");
  }
  if (const Value* f = find_optional(v, "profile_chain_hits")) {
    stats.profile_chain_hits = decode_integer(*f, "stats");
  }
  return stats;
}

// ----- Diagnostics -------------------------------------------------------

namespace {

diag::SolveErrorKind decode_kind(const Value& v) {
  diag::SolveErrorKind kind{};
  if (!diag::solve_error_from_name(v.as_string(), kind)) {
    throw CodecError("codec: unknown error kind \"" + v.as_string() + "\"");
  }
  return kind;
}

}  // namespace

Value encode_diagnostics(const diag::Diagnostics& d) {
  Value warnings = Value::array();
  for (const diag::Warning& w : d.warnings) {
    Value entry = Value::object();
    entry.set("kind", Value::string(diag::solve_error_name(w.kind)))
        .set("message", Value::string(w.message));
    warnings.push_back(std::move(entry));
  }
  Value out = Value::object();
  out.set("error", Value::string(diag::solve_error_name(d.error)))
      .set("message", Value::string(d.message))
      .set("warnings", std::move(warnings));
  return out;
}

diag::Diagnostics decode_diagnostics(const Value& v) {
  diag::Diagnostics d;
  d.error = decode_kind(v.at("error"));
  d.message = v.at("message").as_string();
  for (const Value& w : v.at("warnings").items()) {
    d.warnings.push_back(
        diag::Warning{decode_kind(w.at("kind")), w.at("message").as_string()});
  }
  return d;
}

// ----- BoundResult -------------------------------------------------------

Value encode_bound_result(const e2e::BoundResult& r) {
  Value out = Value::object();
  out.set("delay_ms", encode_double(r.delay_ms))
      .set("gamma", encode_double(r.gamma))
      .set("s", encode_double(r.s))
      .set("sigma", encode_double(r.sigma))
      .set("delta", encode_double(r.delta))
      .set("stats", encode_solve_stats(r.stats))
      .set("diagnostics", encode_diagnostics(r.diagnostics));
  return out;
}

e2e::BoundResult decode_bound_result(const Value& v) {
  e2e::BoundResult r{};
  r.delay_ms = decode_double(v.at("delay_ms"));
  r.gamma = decode_double(v.at("gamma"));
  r.s = decode_double(v.at("s"));
  r.sigma = decode_double(v.at("sigma"));
  r.delta = decode_double(v.at("delta"));
  if (const Value* stats = find_optional(v, "stats")) {
    r.stats = decode_solve_stats(*stats);
  }
  if (const Value* d = find_optional(v, "diagnostics")) {
    r.diagnostics = decode_diagnostics(*d);
  }
  return r;
}

// ----- DelayProfile ------------------------------------------------------

Value encode_delay_profile(const e2e::DelayProfile& p) {
  Value epsilons = Value::array();
  for (double eps : p.epsilons) epsilons.push_back(encode_double(eps));
  Value levels = Value::array();
  for (const e2e::BoundResult& r : p.levels) {
    levels.push_back(encode_bound_result(r));
  }
  Value out = Value::object();
  out.set("epsilons", std::move(epsilons))
      .set("levels", std::move(levels))
      .set("stats", encode_solve_stats(p.stats));
  return out;
}

e2e::DelayProfile decode_delay_profile(const Value& v) {
  if (!v.is_object()) {
    throw CodecError("codec: delay profile must be an object, got " +
                     v.dump());
  }
  e2e::DelayProfile p;
  for (const Value& eps : v.at("epsilons").items()) {
    p.epsilons.push_back(decode_double(eps));
  }
  for (const Value& r : v.at("levels").items()) {
    p.levels.push_back(decode_bound_result(r));
  }
  if (p.epsilons.size() != p.levels.size()) {
    throw CodecError("codec: delay profile has " +
                     std::to_string(p.epsilons.size()) + " epsilons but " +
                     std::to_string(p.levels.size()) + " levels");
  }
  if (const Value* stats = find_optional(v, "stats")) {
    p.stats = decode_solve_stats(*stats);
  }
  return p;
}

// ----- SolveOptions / cache key ------------------------------------------

Value encode_solve_options(const SolveOptions& options) {
  Value out = Value::object();
  out.set("method", encode_method(options.method))
      .set("scheduler", options.scheduler.has_value()
                            ? encode_scheduler(*options.scheduler)
                            : Value::null())
      .set("delta", options.delta.has_value() ? encode_double(*options.delta)
                                              : Value::null())
      .set("warm_start",
           Value::string(options.warm_start == e2e::WarmStart::kWarm
                             ? "warm"
                             : "cold"));
  return out;
}

SolveOptions decode_solve_options(const Value& v) {
  SolveOptions options;
  if (const Value* m = find_optional(v, "method")) {
    options.method = decode_method(*m);
  }
  if (const Value* s = find_optional(v, "scheduler")) {
    options.scheduler = decode_scheduler(*s);
  }
  if (const Value* d = find_optional(v, "delta")) {
    options.delta = decode_double(*d);
  }
  if (const Value* w = find_optional(v, "warm_start")) {
    const std::string& name = w->as_string();
    if (name == "warm") {
      options.warm_start = e2e::WarmStart::kWarm;
    } else if (name == "cold") {
      options.warm_start = e2e::WarmStart::kCold;
    } else {
      throw CodecError("codec: unknown warm_start \"" + name + "\"");
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

}  // namespace

std::string solve_cache_key(const e2e::Scenario& sc,
                            const SolveOptions& options) {
  SolveOptions canonical = options;
  e2e::Scenario effective = sc;
  canonicalize_solve(effective, canonical);
  Value key = Value::object();
  key.set("kind", Value::string("solve"))
      .set("scenario", encode_scenario(effective))
      .set("options", encode_solve_options(canonical));
  return key.dump();
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
  Value eps = Value::array();
  for (double e : epsilons) eps.push_back(encode_double(e));
  Value key = Value::object();
  key.set("kind", Value::string("profile"))
      .set("scenario", encode_scenario(effective))
      .set("options", encode_solve_options(canonical))
      .set("epsilons", std::move(eps));
  return key.dump();
}

}  // namespace deltanc::io
