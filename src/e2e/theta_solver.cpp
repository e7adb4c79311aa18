#include "e2e/theta_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace deltanc::e2e {

NodeTerms node_terms(const PathParams& p, double gamma, int h) {
  const double slack = p.capacity - p.rho_cross - h * gamma;  // ch - rc
  if (!(slack > 0.0)) {
    throw std::invalid_argument(
        "theta_h: stability requires C - rho_c - h*gamma > 0 (Eq. 32)");
  }
  return NodeTerms{p.capacity - (h - 1) * gamma,  // C - (h-1) gamma
                   slack, p.rho_cross + gamma,    // rho_c + gamma
                   p.delta};
}

double theta_h(const PathParams& p, double gamma, double sigma, int h,
               double x) {
  p.validate();
  if (h < 1 || h > p.hops) {
    throw std::invalid_argument("theta_h: node index out of range");
  }
  if (!(x >= 0.0) || !(sigma >= 0.0) || !(gamma > 0.0)) {
    throw std::invalid_argument("theta_h: need x >= 0, sigma >= 0, gamma > 0");
  }
  return theta_at(node_terms(p, gamma, h), sigma, x);
}

double objective(const PathParams& p, double gamma, double sigma, double x) {
  double f = x;
  for (int h = 1; h <= p.hops; ++h) {
    f += theta_h(p, gamma, sigma, h, x);
  }
  return f;
}

bool feasible(const PathParams& p, double gamma, double sigma, double x,
              std::span<const double> theta, double tol) {
  if (theta.size() != static_cast<std::size_t>(p.hops) || x < -tol) {
    return false;
  }
  for (int h = 1; h <= p.hops; ++h) {
    const double th = theta[h - 1];
    if (th < -tol) return false;
    const double ch = p.capacity - (h - 1) * gamma;
    const double rc = p.rho_cross + gamma;
    const double capped = std::min(p.delta, th);
    const double bracket = std::max(0.0, x + capped);
    if (ch * (x + th) - rc * bracket < sigma - tol) return false;
  }
  return true;
}

}  // namespace deltanc::e2e
