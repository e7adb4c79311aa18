#include "e2e/k_procedure.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "e2e/delay_bound.h"
#include "e2e/theta_solver.h"

namespace deltanc::e2e {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool eq40_holds(const PathParams& p, double gamma, int k) {
  double sum = 0.0;
  for (int h = k + 1; h <= p.hops; ++h) {
    sum += (p.capacity - p.rho_cross - h * gamma) /
           (p.capacity - (h - 1) * gamma);
  }
  return sum < 1.0;
}

double x_for_k(const PathParams& p, double gamma, double sigma, int k) {
  if (p.delta >= 0.0) {
    if (k == 0) return 0.0;
    return sigma / (p.capacity - p.rho_cross - k * gamma);  // Eq. (41)
  }
  if (k == 0) return std::isfinite(p.delta) ? -p.delta : 0.0;
  const double a = sigma / (p.capacity - (k - 1) * gamma);
  const double b = std::isfinite(p.delta)
                       ? (sigma + (p.rho_cross + gamma) * p.delta) /
                             (p.capacity - p.rho_cross - k * gamma)
                       : -kInf;
  return std::max(a, b);  // Eq. (42)
}

bool thetas_exceed_delta(const PathParams& p, const SolveWorkspace& ws,
                         double sigma, int k, double x) {
  if (!(p.delta >= 0.0) || !std::isfinite(p.delta)) return true;
  for (int h = k + 1; h <= p.hops; ++h) {
    const NodeTerms& n = ws.nodes[static_cast<std::size_t>(h - 1)];
    if (theta_at(n, sigma, x) <= p.delta) return false;
  }
  return true;
}

/// Checks the inputs, loads the per-node constants into ws.nodes, and
/// returns the K of Eq. (40) plus the theta > Delta side condition.
int select_k(const PathParams& p, double gamma, double sigma,
             SolveWorkspace& ws) {
  p.validate();
  if (!(gamma > 0.0) || !(gamma < p.gamma_limit())) {
    throw std::invalid_argument("k_procedure: gamma violates Eq. (32)");
  }
  if (!(sigma >= 0.0)) {
    throw std::invalid_argument("k_procedure: sigma must be >= 0");
  }
  detail::load_nodes(p, gamma, ws);
  // Delta = +inf is the paper's explicit BMUX special case (Eq. 43):
  // theta_h never exceeds Delta, so the regime-B derivative analysis
  // behind Eq. (40) does not apply; the optimum is K = H, all theta = 0.
  if (p.delta == kInf) return p.hops;
  for (int k = 0; k <= p.hops; ++k) {
    if (!eq40_holds(p, gamma, k)) continue;
    const double x = std::max(0.0, x_for_k(p, gamma, sigma, k));
    if (!thetas_exceed_delta(p, ws, sigma, k, x)) continue;
    return k;
  }
  return p.hops;  // Eq. (40) always holds at K = H (empty sum)
}

}  // namespace

int k_procedure_index(const PathParams& p, double gamma, double sigma) {
  SolveWorkspace ws;
  return select_k(p, gamma, sigma, ws);
}

const DelayResult& k_procedure_delay(const PathParams& p, double gamma,
                                     double sigma, SolveWorkspace& ws) {
  const int k = select_k(p, gamma, sigma, ws);
  const double x = std::max(0.0, x_for_k(p, gamma, sigma, k));
  DelayResult& result = ws.result;
  result.x = x;
  result.delay = x;
  result.theta.clear();
  result.theta.reserve(static_cast<std::size_t>(p.hops));
  for (const NodeTerms& n : ws.nodes) {
    const double th = theta_at(n, sigma, x);
    result.theta.push_back(th);
    result.delay += th;
  }
  return result;
}

}  // namespace deltanc::e2e
