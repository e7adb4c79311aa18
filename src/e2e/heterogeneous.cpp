#include "e2e/heterogeneous.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "e2e/delay_bound.h"
#include "e2e/network_epsilon.h"
#include "e2e/theta_solver.h"

namespace deltanc::e2e {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

NodeParams node_params_for(const sched::SchedulerSpec& scheduler,
                           double capacity, double rho_cross, double m_cross,
                           double edf_unit) {
  if (scheduler.is_curve_backed()) {
    // delta_term() would be NaN and fail HeteroPath::validate with an
    // unhelpful message; name the real limitation instead.
    throw std::invalid_argument(
        "node_params_for: '" + sched::to_string(scheduler) +
        "' is curve-backed and has no per-node Delta term; the "
        "heterogeneous Delta path does not support it (use "
        "SchedulerSpec::rate_latency)");
  }
  return NodeParams{capacity, rho_cross, m_cross,
                    scheduler.delta_term(edf_unit)};
}

void HeteroPath::validate() const {
  if (nodes.empty()) {
    throw std::invalid_argument("HeteroPath: need at least one node");
  }
  if (!(rho >= 0.0) || !(alpha > 0.0) || !(m >= 1.0)) {
    throw std::invalid_argument("HeteroPath: malformed through traffic");
  }
  for (const NodeParams& n : nodes) {
    if (!(n.capacity > 0.0) || !(n.rho_cross >= 0.0) || !(n.m_cross >= 1.0)) {
      throw std::invalid_argument("HeteroPath: malformed node");
    }
    if (n.delta != n.delta) {
      throw std::invalid_argument("HeteroPath: NaN delta");
    }
  }
}

double HeteroPath::gamma_limit() const {
  double limit = kInf;
  for (const NodeParams& n : nodes) {
    limit = std::min(limit, n.capacity - n.rho_cross - rho);
  }
  return limit / (hops() + 1);
}

nc::ExpBound hetero_delay_violation_bound(const HeteroPath& p, double gamma) {
  p.validate();
  if (!(gamma > 0.0)) {
    throw std::invalid_argument("hetero bound: gamma must be > 0");
  }
  // Per-node Theorem-1 bounds: the cross aggregate's sample-path bound.
  std::vector<nc::ExpBound> node_bounds;
  node_bounds.reserve(p.nodes.size());
  for (const NodeParams& n : p.nodes) {
    node_bounds.push_back(
        nc::geometric_tail(nc::ExpBound(n.m_cross, p.alpha), gamma));
  }
  const nc::ExpBound net = network_service_bound_generic(node_bounds, gamma);
  const nc::ExpBound envelope =
      nc::geometric_tail(nc::ExpBound(p.m, p.alpha), gamma);
  return nc::inf_convolution(envelope, net);
}

double hetero_sigma_for_epsilon(const HeteroPath& p, double gamma,
                                double epsilon) {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument("hetero bound: need 0 < epsilon < 1");
  }
  return hetero_delay_violation_bound(p, gamma).sigma_for(epsilon);
}

double hetero_theta_h(const HeteroPath& p, double gamma, double sigma, int h,
                      double x) {
  p.validate();
  if (h < 1 || h > p.hops()) {
    throw std::invalid_argument("hetero_theta_h: node index out of range");
  }
  if (!(x >= 0.0) || !(sigma >= 0.0) || !(gamma > 0.0)) {
    throw std::invalid_argument("hetero_theta_h: bad arguments");
  }
  return theta_at(node_terms(p, gamma, h), sigma, x);
}

NodeTerms node_terms(const HeteroPath& p, double gamma, int h) {
  const NodeParams& n = p.nodes[static_cast<std::size_t>(h - 1)];
  const double ch = n.capacity - (h - 1) * gamma;
  const double rc = n.rho_cross + gamma;
  const double slack = ch - rc;
  if (!(slack > 0.0)) {
    throw std::invalid_argument("hetero_theta_h: node unstable (Eq. 32)");
  }
  return NodeTerms{ch, slack, rc, n.delta};
}

namespace detail {

void load_nodes(const HeteroPath& p, double gamma, SolveWorkspace& ws) {
  ws.nodes.resize(p.nodes.size());
  for (int h = 1; h <= p.hops(); ++h) {
    ws.nodes[static_cast<std::size_t>(h - 1)] = node_terms(p, gamma, h);
  }
}

}  // namespace detail

DelayResult hetero_optimize_delay(const HeteroPath& p, double gamma,
                                  double sigma) {
  p.validate();
  if (!(gamma > 0.0) || !(gamma < p.gamma_limit())) {
    throw std::invalid_argument("hetero_optimize_delay: gamma violates Eq. 32");
  }
  if (!(sigma >= 0.0)) {
    throw std::invalid_argument("hetero_optimize_delay: sigma must be >= 0");
  }
  SolveWorkspace ws;
  detail::load_nodes(p, gamma, ws);
  return detail::sweep_minimize(sigma, ws);
}

double hetero_best_delay_bound(const HeteroPath& p, double epsilon,
                               double* best_gamma) {
  p.validate();
  const double glim = p.gamma_limit();
  if (!(glim > 0.0)) return kInf;
  double best = kInf;
  double best_g = 0.0;
  const int kScan = 48;
  for (int i = 1; i <= kScan; ++i) {
    const double gamma = glim * static_cast<double>(i) / (kScan + 1);
    const double sigma = hetero_sigma_for_epsilon(p, gamma, epsilon);
    const double d = hetero_optimize_delay(p, gamma, sigma).delay;
    if (d < best) {
      best = d;
      best_g = gamma;
    }
  }
  if (best_gamma != nullptr) *best_gamma = best_g;
  return best;
}

}  // namespace deltanc::e2e
