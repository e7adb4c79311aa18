#include "serve/fault_plan.h"

#include <cmath>

#include "sched/scheduler_spec.h"

namespace deltanc::serve {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(sep, start);
    out.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) return out;
    start = pos + 1;
  }
}

bool parse_number(const std::string& text, double& out) {
  // The service shares the CLI's strict locale-independent grammar: no
  // whitespace, hexfloats, or leading '+' hiding in a fault spec.
  return sched::parse_strict_double(text, out);
}

bool parse_count(const std::string& text, double& out) {
  return parse_number(text, out) && out >= 0 && out == std::floor(out) &&
         out <= 1e9;
}

std::string format_number(double v) {
  // Fault counts and ids are whole numbers in practice; print them
  // without a trailing ".000000".
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  return std::to_string(v);
}

}  // namespace

bool FaultPlan::parse(const std::string& spec, FaultPlan& out,
                      std::string& error) {
  FaultPlan plan;
  for (const std::string& entry : split(spec, ';')) {
    if (entry.empty()) continue;
    const std::vector<std::string> parts = split(entry, ':');
    const std::string& head = parts[0];
    double a = 0.0, b = 0.0;
    if (head == "delay" && parts.size() == 3 &&
        parse_number(parts[1], a) && parse_number(parts[2], b) && b >= 0) {
      plan.delays.push_back(Delay{a, b});
    } else if (head == "store-fail" && parts.size() == 2 &&
               parse_count(parts[1], a)) {
      plan.store_failures += static_cast<int>(a);
    } else {
      error = "bad fault entry '" + entry +
              "' (want delay:<id>:<ms> or store-fail:<n>)";
      return false;
    }
  }
  out = plan;
  return true;
}

std::string FaultPlan::to_string() const {
  std::string out;
  const auto append = [&out](const std::string& entry) {
    if (!out.empty()) out += ';';
    out += entry;
  };
  for (const Delay& d : delays) {
    append("delay:" + format_number(d.id) + ":" + format_number(d.ms));
  }
  if (store_failures > 0) {
    append("store-fail:" + std::to_string(store_failures));
  }
  return out;
}

double FaultPlan::delay_ms_for(std::string_view id) const {
  // Only a number's bytes have a value to match: a string id such as
  // "7" (quotes included) never does.
  double value = 0.0;
  if (!sched::parse_strict_double(id, value)) return 0.0;
  double total = 0.0;
  for (const Delay& d : delays) {
    if (d.id == value) total += d.ms;
  }
  return total;
}

}  // namespace deltanc::serve
