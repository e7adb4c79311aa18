#include "sched/scheduler_spec.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <vector>

namespace deltanc::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// THE scheduler name table.  Everything else (sweep axes, codec, cache
// keys, CLI, reports) goes through the functions below; scripts/check.sh
// fails if any other src/ or tools/ file spells these strings.
struct KindRow {
  SchedulerKind kind;
  std::string_view name;
  std::string_view description;
};

constexpr KindRow kKinds[] = {
    {SchedulerKind::kFifo, "fifo", "FIFO"},
    {SchedulerKind::kBmux, "bmux", "blind multiplexing (SP, through low)"},
    {SchedulerKind::kSpHigh, "sp-high", "static priority (through high)"},
    {SchedulerKind::kEdf, "edf", "EDF"},
    {SchedulerKind::kDelta, "delta", "fixed Delta offset"},
    {SchedulerKind::kGps, "gps", "generalized processor sharing"},
    {SchedulerKind::kDrr, "drr", "deficit round robin (fluid)"},
    {SchedulerKind::kSced, "sced", "fluid SCED (load-proportional)"},
};

/// "%g" of a double (enough for display and CLI round-trips; the JSON
/// codec uses its own bit-exact encoding).
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// "w1,w2,..." for the weight list of a curve-backed spec.
std::string format_weights(const ClassWeights& w) {
  std::string out;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (i > 0) out += ',';
    out += format_double(w[i]);
  }
  return out;
}

/// Parses "w1,w2,..." into ClassWeights; false on count or value rules
/// (2..kMaxClasses positive finite entries -- the same rules
/// ClassWeights::of clamps on).
bool parse_weights(std::string_view text, ClassWeights& out) {
  ClassWeights w{};
  w.values = {};
  w.count = 0;
  while (!text.empty()) {
    if (w.count == ClassWeights::kMaxClasses) return false;
    const std::size_t comma = text.find(',');
    const std::string_view token = text.substr(0, comma);
    double v = 0.0;
    if (!parse_strict_double(token, v)) return false;
    if (!(v > 0.0) || !std::isfinite(v)) return false;
    w.values[w.count++] = v;
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
    if (text.empty()) return false;  // trailing comma
  }
  if (w.count < 2) return false;
  out = w;
  return true;
}

}  // namespace

bool parse_strict_double(std::string_view text, double& out) noexcept {
  if (text.empty()) return false;
  double v = 0.0;
  const char* const first = text.data();
  const char* const last = first + text.size();
  // std::chars_format::general already rejects leading whitespace and
  // '+', and stops at the 'x' of a hexfloat token; requiring the whole
  // input to be consumed turns both into hard parse failures.
  const auto [ptr, ec] = std::from_chars(first, last, v,
                                         std::chars_format::general);
  if (ec != std::errc{} || ptr != last) return false;
  out = v;
  return true;
}

std::optional<double> SchedulerSpec::static_delta() const noexcept {
  switch (kind()) {
    case SchedulerKind::kFifo:
      return 0.0;
    case SchedulerKind::kBmux:
      return kInf;
    case SchedulerKind::kSpHigh:
      return -kInf;
    case SchedulerKind::kDelta:
      return delta();
    case SchedulerKind::kEdf:
      return std::nullopt;
    case SchedulerKind::kGps:
    case SchedulerKind::kDrr:
    case SchedulerKind::kSced:
      // Curve-backed: no constants Delta_{j,k} exist (Definition 1 does
      // not apply); the solver lowers these through rate_latency()
      // instead.
      return std::nullopt;
  }
  return std::nullopt;
}

double SchedulerSpec::delta_term(double edf_unit) const noexcept {
  if (is_curve_backed()) {
    // Documented sentinel: curve-backed kinds have no Delta term.
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (const std::optional<double> d = static_delta()) return *d;
  // EDF: Delta = d*_0 - d*_c = (own - cross) * unit.
  return (edf_factors().own_factor - edf_factors().cross_factor) * edf_unit;
}

ClassOffsets SchedulerSpec::class_offsets(double edf_unit) const noexcept {
  if (const std::optional<double> d = static_delta()) {
    // The whole Delta on one class (a NaN lands on the cross class).
    return {*d > 0.0 ? *d : 0.0, *d > 0.0 ? 0.0 : -*d};
  }
  return {edf_factors().own_factor * edf_unit,
          edf_factors().cross_factor * edf_unit};
}

std::optional<RateLatency> SchedulerSpec::rate_latency(
    double capacity, const ClassLoads& loads) const {
  if (is_curve_backed() && (!(capacity > 0.0) || !std::isfinite(capacity))) {
    throw std::invalid_argument(
        "SchedulerSpec::rate_latency: capacity must be positive and finite");
  }
  switch (kind()) {
    case SchedulerKind::kFifo:
    case SchedulerKind::kBmux:
    case SchedulerKind::kSpHigh:
    case SchedulerKind::kEdf:
    case SchedulerKind::kDelta:
      return std::nullopt;
    case SchedulerKind::kGps:
      return RateLatency{weights().through_share() * capacity, 0.0};
    case SchedulerKind::kDrr:
      return RateLatency{weights().through_share() * capacity,
                         weights().cross_total() / capacity};
    case SchedulerKind::kSced: {
      if (loads.through < 0.0 || loads.cross < 0.0 ||
          !std::isfinite(loads.through) || !std::isfinite(loads.cross)) {
        throw std::invalid_argument(
            "SchedulerSpec::rate_latency: class loads must be finite and "
            "non-negative");
      }
      const double total = loads.through + loads.cross;
      if (total <= 0.0) return RateLatency{capacity, 0.0};
      return RateLatency{capacity * loads.through / total, 0.0};
    }
  }
  return std::nullopt;
}

DeltaMatrix SchedulerSpec::to_delta_matrix(std::size_t flows,
                                           std::size_t analyzed,
                                           double edf_unit) const {
  if (analyzed >= flows) {
    throw std::invalid_argument(
        "SchedulerSpec::to_delta_matrix: analyzed flow out of range");
  }
  switch (kind()) {
    case SchedulerKind::kFifo:
      return DeltaMatrix::fifo(flows);
    case SchedulerKind::kBmux:
      return DeltaMatrix::bmux(flows, analyzed);
    case SchedulerKind::kSpHigh: {
      std::vector<int> priority(flows, 0);
      priority[analyzed] = 1;
      return DeltaMatrix::static_priority(priority);
    }
    case SchedulerKind::kEdf: {
      std::vector<double> deadlines(flows,
                                    edf_factors().cross_factor * edf_unit);
      deadlines[analyzed] = edf_factors().own_factor * edf_unit;
      return DeltaMatrix::edf(deadlines);
    }
    case SchedulerKind::kDelta: {
      // +/-inf offsets coincide with the BMUX / SP-high matrices; finite
      // offsets are deadline differences (analyzed - other = delta).
      if (delta() == kInf) return DeltaMatrix::bmux(flows, analyzed);
      if (delta() == -kInf) {
        std::vector<int> priority(flows, 0);
        priority[analyzed] = 1;
        return DeltaMatrix::static_priority(priority);
      }
      std::vector<double> deadlines(flows, delta() < 0.0 ? -delta() : 0.0);
      deadlines[analyzed] = delta() > 0.0 ? delta() : 0.0;
      return DeltaMatrix::edf(deadlines);
    }
    case SchedulerKind::kGps:
    case SchedulerKind::kDrr:
    case SchedulerKind::kSced:
      throw std::invalid_argument(
          "SchedulerSpec::to_delta_matrix: '" + to_string(*this) +
          "' is curve-backed, not a Delta-scheduler; lower it via "
          "SchedulerSpec::rate_latency instead");
  }
  throw std::invalid_argument("SchedulerSpec::to_delta_matrix: unknown kind");
}

std::string_view scheduler_kind_name(SchedulerKind kind) noexcept {
  for (const KindRow& row : kKinds) {
    if (row.kind == kind) return row.name;
  }
  return "?";
}

bool scheduler_kind_from_name(std::string_view name,
                              SchedulerKind& out) noexcept {
  for (const KindRow& row : kKinds) {
    if (row.name == name) {
      out = row.kind;
      return true;
    }
  }
  return false;
}

std::string to_string(const SchedulerSpec& spec) {
  switch (spec.kind()) {
    case SchedulerKind::kDelta:
      return std::string(scheduler_kind_name(SchedulerKind::kDelta)) + ":" +
             format_double(spec.delta());
    case SchedulerKind::kGps:
    case SchedulerKind::kDrr:
      return std::string(scheduler_kind_name(spec.kind())) + ":" +
             format_weights(spec.weights());
    case SchedulerKind::kFifo:
    case SchedulerKind::kBmux:
    case SchedulerKind::kSpHigh:
    case SchedulerKind::kEdf:
    case SchedulerKind::kSced:
      break;
  }
  return std::string(scheduler_kind_name(spec.kind()));
}

bool parse_scheduler(std::string_view text, SchedulerSpec& out) {
  SchedulerKind kind;
  if (scheduler_kind_from_name(text, kind)) {
    // A bare kind name; "delta" without a value is not a scheduler, but
    // bare "gps"/"drr" mean the default equal two-class split.
    if (kind == SchedulerKind::kDelta) return false;
    out = SchedulerSpec(kind);
    return true;
  }
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= text.size()) {
    return false;
  }
  if (!scheduler_kind_from_name(text.substr(0, colon), kind)) return false;
  const std::string_view args = text.substr(colon + 1);
  switch (kind) {
    case SchedulerKind::kDelta: {
      double v = 0.0;
      if (!parse_strict_double(args, v) || v != v) return false;
      out = SchedulerSpec::fixed_delta(v);
      return true;
    }
    case SchedulerKind::kGps:
    case SchedulerKind::kDrr: {
      ClassWeights w;
      if (!parse_weights(args, w)) return false;
      out = kind == SchedulerKind::kGps ? SchedulerSpec::gps(w)
                                        : SchedulerSpec::drr(w);
      return true;
    }
    case SchedulerKind::kFifo:
    case SchedulerKind::kBmux:
    case SchedulerKind::kSpHigh:
    case SchedulerKind::kEdf:
    case SchedulerKind::kSced:
      return false;  // these kinds take no ":<args>" suffix
  }
  return false;
}

bool parse_scheduler_list(std::string_view text,
                          std::vector<SchedulerSpec>& out) {
  std::vector<std::string> tokens;
  while (true) {
    const std::size_t comma = text.find(',');
    tokens.emplace_back(text.substr(0, comma));
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  std::vector<SchedulerSpec> parsed;
  std::size_t i = 0;
  while (i < tokens.size()) {
    // Maximal munch: the longest comma-joined run starting at i that
    // parses wins, so "gps:1,2" beats stopping at the invalid "gps:1".
    bool matched = false;
    for (std::size_t j = tokens.size(); j > i; --j) {
      std::string joined = tokens[i];
      for (std::size_t k = i + 1; k < j; ++k) joined += ',' + tokens[k];
      SchedulerSpec spec;
      if (parse_scheduler(joined, spec)) {
        parsed.push_back(spec);
        i = j;
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  if (parsed.empty()) return false;
  out = std::move(parsed);
  return true;
}

std::string scheduler_usage_names() {
  std::string out;
  for (const KindRow& row : kKinds) {
    if (!out.empty()) out += " | ";
    out += row.name;
    if (row.kind == SchedulerKind::kDelta) out += ":<Delta>";
    if (row.kind == SchedulerKind::kGps) out += "[:<w,...>]";
    if (row.kind == SchedulerKind::kDrr) out += "[:<q,...>]";
  }
  return out;
}

std::string scheduler_description(const SchedulerSpec& spec) {
  for (const KindRow& row : kKinds) {
    if (row.kind == spec.kind()) {
      std::string out(row.description);
      if (spec.kind() == SchedulerKind::kDelta) {
        out += " (Delta = " + format_double(spec.delta()) + ")";
      }
      if (spec.kind() == SchedulerKind::kGps) {
        out += " (weights " + format_weights(spec.weights()) + ")";
      }
      if (spec.kind() == SchedulerKind::kDrr) {
        out += " (quanta " + format_weights(spec.weights()) + ")";
      }
      return out;
    }
  }
  return "?";
}

}  // namespace deltanc::sched
