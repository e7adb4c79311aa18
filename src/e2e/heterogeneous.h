// Heterogeneous networks -- the closing remark of Section IV: per-node
// link rates C^h, scheduler constants Delta_{0,h}, cross-traffic rates
// rho_c^h and bounding functions.  The delay-bound machinery carries
// over: theta_h(X) becomes the smallest non-negative solution of
//
//   (C^h - (h-1) gamma)(X + theta_h)
//        - (rho_c^h + gamma) [X + Delta_{0,h}(theta_h)]_+  >=  sigma ,
//
// the bounding function of the network service curve is assembled from
// the per-node bounds via Eq. (31) (network_service_bound_generic), and
// the minimization over X runs through the same breakpoint kernel.
#pragma once

#include <vector>

#include "e2e/path_params.h"
#include "nc/bounding_function.h"
#include "sched/scheduler_spec.h"

namespace deltanc::e2e {

/// Per-node description of a heterogeneous path.
struct NodeParams {
  double capacity;    ///< C^h
  double rho_cross;   ///< EBB rate of the cross aggregate at this node
  double m_cross;     ///< EBB prefactor of that aggregate (usually 1)
  double delta;       ///< Delta_{0,h}; +/-inf allowed
};

/// Lowers a scheduler spec onto one heterogeneous node: the node's
/// Delta_{0,h} is the spec's through-vs-cross Delta term, with EDF
/// deadlines resolved against `edf_unit` (callers supply d_e2e / H from
/// an outer fixed point; non-EDF kinds ignore it).  This is how per-node
/// scheduler mixes are built without bypassing the SchedulerSpec
/// pipeline.
[[nodiscard]] NodeParams node_params_for(const sched::SchedulerSpec& scheduler,
                                         double capacity, double rho_cross,
                                         double m_cross, double edf_unit = 1.0);

/// A through flow (EBB (m, rho, alpha)) crossing heterogeneous nodes.
/// All flows share the Chernoff parameter alpha (as in the paper).
struct HeteroPath {
  std::vector<NodeParams> nodes;
  double rho;    ///< through EBB rate
  double alpha;  ///< common EBB decay
  double m;      ///< through EBB prefactor

  [[nodiscard]] int hops() const noexcept {
    return static_cast<int>(nodes.size());
  }
  /// @throws std::invalid_argument on malformed values.
  void validate() const;
  /// Strict upper limit on gamma: min_h (C^h - rho_c^h - rho) / (H+1).
  [[nodiscard]] double gamma_limit() const;
};

/// End-to-end delay violation bound: the inf-convolution of the through
/// envelope bound with the generic Eq. (31) network bound.
[[nodiscard]] nc::ExpBound hetero_delay_violation_bound(const HeteroPath& p,
                                                        double gamma);

/// sigma achieving the target violation probability.
[[nodiscard]] double hetero_sigma_for_epsilon(const HeteroPath& p,
                                              double gamma, double epsilon);

/// Node h's (1-based) constants at gamma (e2e::theta_at evaluates
/// theta_h from them).
/// @throws std::invalid_argument when the node violates Eq. (32).
[[nodiscard]] NodeTerms node_terms(const HeteroPath& p, double gamma, int h);

/// theta_h(X) for node h (1-based).
[[nodiscard]] double hetero_theta_h(const HeteroPath& p, double gamma,
                                    double sigma, int h, double x);

/// Exact minimization of X + sum_h theta_h(X): the same breakpoint
/// kernel as optimize_delay (detail::sweep_minimize), fed per-node
/// constants.
[[nodiscard]] DelayResult hetero_optimize_delay(const HeteroPath& p,
                                                double gamma, double sigma);

namespace detail {

/// Loads the per-node constants of a heterogeneous path (node_terms)
/// into `ws`, for detail::sweep_minimize / detail::enumerate_minimize.
/// @throws std::invalid_argument when some node violates Eq. (32).
void load_nodes(const HeteroPath& p, double gamma, SolveWorkspace& ws);

}  // namespace detail

/// Full bound at a target epsilon, optimized over gamma.
/// Returns +infinity delay when the path is unstable.
[[nodiscard]] double hetero_best_delay_bound(const HeteroPath& p,
                                             double epsilon,
                                             double* best_gamma = nullptr);

}  // namespace deltanc::e2e
