// Parameters of the homogeneous end-to-end scenario of Section IV:
// a through flow crossing H identical nodes (capacity C, Delta-scheduler
// with through/cross constant Delta_{0,c}), EBB through traffic
// A ~ (M, rho, alpha) and i.i.d. EBB cross traffic A_c^h ~ (M, rho_c, alpha)
// at every node.  Time in milliseconds, data in kilobits (rates = Mbps).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace deltanc::e2e {

struct PathParams {
  double capacity;   ///< C, per-node link rate
  int hops;          ///< H >= 1
  double rho;        ///< through-traffic EBB rate
  double rho_cross;  ///< cross-traffic EBB rate per node
  double alpha;      ///< EBB decay (Chernoff parameter s)
  double m;          ///< EBB prefactor M (>= 1)
  double delta;      ///< Delta_{0,c}; may be +/-infinity (BMUX / SP-high)

  /// @throws std::invalid_argument on inconsistent values.
  void validate() const {
    if (!(capacity > 0.0)) throw std::invalid_argument("capacity must be > 0");
    if (hops < 1) throw std::invalid_argument("hops must be >= 1");
    if (!(rho >= 0.0) || !(rho_cross >= 0.0)) {
      throw std::invalid_argument("rates must be >= 0");
    }
    if (!(alpha > 0.0)) throw std::invalid_argument("alpha must be > 0");
    if (!(m >= 1.0)) throw std::invalid_argument("M must be >= 1");
    // delta may be anything including +/-inf, but not NaN.
    if (delta != delta) throw std::invalid_argument("delta must not be NaN");
  }

  /// Eq. (32): the per-node rate slack gamma must satisfy
  /// (H+1) gamma < C - rho_c - rho.  Returns that strict upper limit
  /// (<= 0 means the configuration is unstable).
  [[nodiscard]] double gamma_limit() const {
    return (capacity - rho_cross - rho) / (hops + 1);
  }
};

/// Result of the delay-bound optimization (Eq. (38)/(39)): the bound
/// itself plus the optimizing variables, for diagnostics and ablations.
struct DelayResult {
  double delay;               ///< d(sigma), in ms
  double x;                   ///< optimizing X = d - sum theta_h
  std::vector<double> theta;  ///< theta_1 .. theta_H
};

/// Per-node constants of theta_h (Eq. 39) at one gamma.
struct NodeTerms {
  double cap;    ///< C - (h-1) gamma
  double slack;  ///< C - rho_c - h gamma, as theta_h divides by it
  double rc;     ///< rho_c + gamma
  double delta;  ///< Delta_{0,c} of the node
};

/// One positive breakpoint candidate of the Eq. (39) sweep: its X, the
/// change of the objective's slope there (0 where the candidate is not
/// a kink of the active branch), and its index in the candidate list.
struct SweepStep {
  double x;
  double dslope;
  std::uint32_t index;
};

/// Reusable buffers for the Eq. (39) optimizers.  The (s, gamma)
/// parameter search evaluates `optimize_delay` / `k_procedure_delay`
/// thousands of times per scenario; passing one workspace through those
/// calls makes them allocation-free after the first call (every vector
/// keeps its capacity).  A workspace carries no results across calls --
/// each call overwrites it completely -- so a default-constructed one is
/// always valid input.
struct SolveWorkspace {
  std::vector<NodeTerms> nodes;    ///< per-node constants, h = 1..H
  std::vector<double> candidates;  ///< breakpoint candidates of Eq. (39)
  std::vector<double> approx;      ///< swept objective at each candidate
  std::vector<SweepStep> families; ///< positive candidates, one (H+1)-slot
                                   ///< block per candidate family
  std::vector<double> theta;       ///< theta_h of the candidate being
                                   ///< evaluated (swapped into result)
  DelayResult result;              ///< reused output slot (theta buffer)
};

}  // namespace deltanc::e2e
