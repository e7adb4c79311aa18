// Microbenchmarks (google-benchmark) for the computational kernels:
// min-plus convolution, the Eq. (39) optimizers, the closed-form epsilon
// algebra, effective-bandwidth evaluation, and the simulator's slot rate.
#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "core/thread_pool.h"
#include "e2e/delay_bound.h"
#include "e2e/k_procedure.h"
#include "e2e/network_epsilon.h"
#include "e2e/param_search.h"
#include "e2e/solver.h"
#include "io/result_cache.h"
#include "nc/minplus_ops.h"
#include "sim/tandem.h"
#include "traffic/mmoo.h"

namespace {

using namespace deltanc;

void BM_MinplusConvRateLatency(benchmark::State& state) {
  const auto n = state.range(0);
  std::vector<nc::Curve> curves;
  for (std::int64_t i = 0; i < n; ++i) {
    curves.push_back(nc::Curve::rate_latency(100.0 - static_cast<double>(i),
                                             0.5 + 0.1 * static_cast<double>(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nc::minplus_conv(std::span<const nc::Curve>(curves)));
  }
}
BENCHMARK(BM_MinplusConvRateLatency)->Arg(2)->Arg(8)->Arg(32);

void BM_MinplusConvGatedCurves(benchmark::State& state) {
  const nc::Curve a = nc::Curve::affine(5.0, 3.0).gated(2.0);
  const nc::Curve b = nc::Curve::affine(2.0, 4.0).gated(1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nc::minplus_conv(a, b));
  }
}
BENCHMARK(BM_MinplusConvGatedCurves);

void BM_ServiceDelayBound(benchmark::State& state) {
  const nc::Curve e = nc::Curve::leaky_bucket(2.0, 6.0);
  const nc::Curve s = nc::Curve::rate_latency(3.0, 1.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nc::service_delay_bound(e, s));
  }
}
BENCHMARK(BM_ServiceDelayBound);

// Exact Eq. (39) optimizer per path length (range 0) and scheduler family
// (range 1): Delta = 0 (FIFO), -5 (EDF, through deadline tighter), +2
// (EDF, through deadline looser), +inf (BMUX).
void BM_OptimizeDelayExact(benchmark::State& state) {
  constexpr double kDeltas[] = {0.0, -5.0, 2.0,
                                std::numeric_limits<double>::infinity()};
  const e2e::PathParams p{100.0,
                          static_cast<int>(state.range(0)),
                          15.0,
                          35.0,
                          0.05,
                          1.0,
                          kDeltas[state.range(1)]};
  const double gamma = 0.4 * p.gamma_limit();
  const double sigma = e2e::sigma_for_epsilon(p, gamma, 1e-9);
  const Solver solver{};  // one reused workspace: allocation-free inner loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.optimize(p, gamma, sigma));
  }
}
BENCHMARK(BM_OptimizeDelayExact)
    ->ArgNames({"H", "delta"})
    ->ArgsProduct({{2, 10, 20, 40}, {0, 1, 2, 3}});

void BM_KProcedure(benchmark::State& state) {
  const e2e::PathParams p{100.0, static_cast<int>(state.range(0)), 15.0,
                          35.0,  0.05, 1.0, -5.0};
  const double gamma = 0.4 * p.gamma_limit();
  const double sigma = e2e::sigma_for_epsilon(p, gamma, 1e-9);
  const Solver solver(e2e::Method::kPaperK);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.optimize(p, gamma, sigma));
  }
}
BENCHMARK(BM_KProcedure)->Arg(10)->Arg(30);

void BM_FullScenarioSolve(benchmark::State& state) {
  e2e::Scenario sc;
  sc.hops = static_cast<int>(state.range(0));
  sc.n_through = 100;
  sc.n_cross = 236;
  sc.scheduler = sched::SchedulerKind::kFifo;
  for (auto _ : state) {
    benchmark::DoNotOptimize(deltanc::Solver().solve(sc));
  }
}
BENCHMARK(BM_FullScenarioSolve)->Arg(2)->Arg(10)->Unit(benchmark::kMillisecond);

// The Fig. 2 (H = 5) sweep grid at a loose epsilon: 8 utilization points
// x 3 schedulers = 24 independent solves.  Arg(0) is the worker count;
// compare threads:1 against threads:N for the parallel speedup (the
// sweep is embarrassingly parallel, so throughput should scale almost
// linearly up to the core count).
void BM_SweepFig2Grid(benchmark::State& state) {
  e2e::Scenario base;
  base.hops = 5;
  base.n_through = 100;
  base.epsilon = 1e-6;
  SweepGrid grid(base);
  grid.cross_utilization_axis(SweepGrid::linspace(0.10, 0.80, 8))
      .scheduler_axis({sched::SchedulerKind::kEdf, sched::SchedulerKind::kFifo,
                       sched::SchedulerKind::kBmux});
  SweepOptions opts;
  opts.threads = static_cast<int>(state.range(0));
  const SweepRunner runner(opts);
  e2e::SolveStats last_stats{};
  for (auto _ : state) {
    SweepReport report = runner.run(grid);
    last_stats = report.stats;
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(grid.size()));
  state.counters["threads"] =
      static_cast<double>(runner.resolved_threads(grid.size()));
  // Algorithmic-work counters (per grid point, not per second): a jump in
  // optimize_evals flags a search-strategy regression independent of the
  // machine; eb_evals stays low because of the per-solve memo.
  const double points = static_cast<double>(grid.size());
  state.counters["optimize_evals_per_point"] =
      static_cast<double>(last_stats.optimize_evals) / points;
  state.counters["eb_evals_per_point"] =
      static_cast<double>(last_stats.eb_evals) / points;
}
BENCHMARK(BM_SweepFig2Grid)
    ->Arg(1)
    ->Arg(static_cast<int>(default_thread_count()))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The headline claim of the profile engine: one warm-chained 16-level
// d(epsilon) profile vs 16 independent cold scalar solves of the same
// scenario.  Arg(0) selects the mode (0 = cold scalars, 1 = warm
// profile); the ratio of the two real times is the chaining speedup
// (scripts/check.sh gates the counter-based equivalent at >= 3x).
void BM_ProfileVsScalar(benchmark::State& state) {
  const bool warm_profile = state.range(0) != 0;
  e2e::Scenario sc;
  sc.hops = 5;
  sc.n_through = 100;
  sc.n_cross = 236;
  sc.scheduler = sched::SchedulerKind::kFifo;
  // 16 levels, log-spaced over [1e-9, 1e-3] -- the --ccdf default shape.
  std::vector<double> epsilons;
  for (int i = 0; i < 16; ++i) {
    epsilons.push_back(
        std::exp(std::log(1e-3) + (std::log(1e-9) - std::log(1e-3)) *
                                      static_cast<double>(i) / 15.0));
  }
  SolveOptions options;
  options.warm_start =
      warm_profile ? e2e::WarmStart::kWarm : e2e::WarmStart::kCold;
  const deltanc::Solver solver(options);
  e2e::SolveStats last_stats{};
  for (auto _ : state) {
    if (warm_profile) {
      e2e::DelayProfile profile = solver.solve_profile(sc, epsilons);
      last_stats = profile.stats;
      benchmark::DoNotOptimize(profile);
    } else {
      // The cold baseline solved the honest way: K independent scalar
      // solves (bit-identical to a kCold solve_profile by contract).
      last_stats = e2e::SolveStats{};
      for (double eps : epsilons) {
        e2e::Scenario level = sc;
        level.epsilon = eps;
        e2e::BoundResult r = solver.solve(level);
        last_stats += r.stats;
        benchmark::DoNotOptimize(r);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * 16);
  state.counters["optimize_evals"] =
      static_cast<double>(last_stats.optimize_evals);
  state.counters["chain_hits"] =
      static_cast<double>(last_stats.profile_chain_hits);
}
BENCHMARK(BM_ProfileVsScalar)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_EffectiveBandwidth(benchmark::State& state) {
  const auto src = traffic::MmooSource::paper_source();
  double s = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(src.effective_bandwidth(s));
    s = s < 60.0 ? s * 1.01 : 0.001;
  }
}
BENCHMARK(BM_EffectiveBandwidth);

void BM_TandemSlots(benchmark::State& state) {
  sim::TandemConfig c;
  c.hops = 3;
  c.n_through = 250;
  c.n_cross = 250;
  c.slots = state.range(0);
  c.warmup_slots = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_tandem(c));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TandemSlots)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_JsonBoundResultRoundTrip(benchmark::State& state) {
  e2e::Scenario sc;
  sc.hops = 5;
  sc.n_through = 100;
  sc.n_cross = 268;
  sc.epsilon = 1e-6;
  const e2e::BoundResult solved = deltanc::Solver().solve(sc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::decode_bound_result(
        io::json::Value::parse(io::encode_bound_result(solved).dump())));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JsonBoundResultRoundTrip);

void BM_ResultCacheHit(benchmark::State& state) {
  // Steady-state hit cost: key canonicalization + file read + decode.
  // This is what bounds warm `--batch` throughput.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "deltanc_bench_cache";
  std::filesystem::remove_all(dir);
  io::ResultCache cache(dir);
  e2e::Scenario sc;
  sc.hops = 5;
  sc.n_through = 100;
  sc.n_cross = 268;
  sc.epsilon = 1e-6;
  const SolveOptions options;
  const std::string key = io::solve_cache_key(sc, options);
  cache.store(key, deltanc::Solver().solve(sc));
  e2e::BoundResult out;
  for (auto _ : state) {
    const auto found = cache.lookup(key, out);
    if (found != io::CacheLookup::kHit) state.SkipWithError("cache missed");
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ResultCacheHit);

}  // namespace

BENCHMARK_MAIN();
