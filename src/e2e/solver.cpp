#include "e2e/solver.h"

#include <stdexcept>

namespace deltanc {

e2e::Scenario Solver::effective_scenario(const e2e::Scenario& sc) const {
  e2e::Scenario out = sc;
  if (options_.scheduler.has_value()) out.scheduler = *options_.scheduler;
  return out;
}

e2e::detail::EngineRequest Solver::engine_request() const {
  e2e::detail::EngineRequest req;
  req.method = options_.method;
  req.delta = options_.delta;
  return req;
}

e2e::BoundResult Solver::solve(const e2e::Scenario& sc) const {
  return e2e::detail::solve_scenario(effective_scenario(sc), engine_request(),
                                     nullptr);
}

e2e::BoundResult Solver::solve(const e2e::Scenario& sc, State& state) const {
  e2e::detail::EngineRequest req = engine_request();
  req.use_warm = options_.warm_start == e2e::WarmStart::kWarm;
  return e2e::detail::solve_scenario(effective_scenario(sc), req, &state);
}

e2e::DelayProfile Solver::solve_profile(
    const e2e::Scenario& sc, std::span<const double> epsilons) const {
  e2e::detail::EngineRequest req = engine_request();
  req.use_warm = options_.warm_start == e2e::WarmStart::kWarm;
  return e2e::detail::solve_profile_scenario(effective_scenario(sc), epsilons,
                                             req, nullptr);
}

e2e::DelayProfile Solver::solve_profile(const e2e::Scenario& sc,
                                        std::span<const double> epsilons,
                                        State& state) const {
  e2e::detail::EngineRequest req = engine_request();
  req.use_warm = options_.warm_start == e2e::WarmStart::kWarm;
  return e2e::detail::solve_profile_scenario(effective_scenario(sc), epsilons,
                                             req, &state);
}

e2e::BoundResult Solver::solve_at(const e2e::Scenario& sc,
                                  double delta) const {
  e2e::detail::EngineRequest req = engine_request();
  req.delta = delta;
  return e2e::detail::solve_scenario(effective_scenario(sc), req, nullptr);
}

e2e::DelayResult Solver::optimize(const e2e::PathParams& p, double gamma,
                                  double sigma) const {
  switch (options_.method) {
    case e2e::Method::kExactOpt:
      return e2e::optimize_delay(p, gamma, sigma, workspace_);
    case e2e::Method::kPaperK:
      return e2e::k_procedure_delay(p, gamma, sigma, workspace_);
  }
  throw std::invalid_argument("Solver: unknown method");
}

}  // namespace deltanc
