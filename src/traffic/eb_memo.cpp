#include "traffic/eb_memo.h"

#include <algorithm>

namespace deltanc::traffic {

double EffectiveBandwidthMemo::operator()(double s) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), s,
      [](const std::pair<double, double>& e, double key) {
        return e.first < key;
      });
  if (it != entries_.end() && it->first == s) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  const double value = source_.effective_bandwidth(s);
  if (entries_.size() < kMaxEntries) {
    entries_.insert(it, {s, value});
  }
  return value;
}

}  // namespace deltanc::traffic
