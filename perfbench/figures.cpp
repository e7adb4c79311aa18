// Workload `figures`: the research path, closed-loop and in-process.
//
// One repetition = the Fig. 2/4-style scalar grids (one SweepRunner::run
// per path length H in {2, 5, 10, 20}; schedulers fifo/bmux/edf/gps:1,1
// x 12 cross utilizations from low to near saturation, eps = 1e-9,
// default warm chains) followed by nine 16-level warm
// Solver::solve_profile calls (H in {2, 5, 10} x fifo/edf/gps:1,1, eps
// 1e-9 .. 1e-3).  The seed jitters the through/cross loads, so a change
// cannot be tuned to exact grid points.  The solver does all the work;
// io and serve are bypassed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common.h"
#include "core/scenario.h"
#include "core/selfcheck.h"
#include "core/sweep.h"
#include "e2e/solver.h"

namespace perfbench {

namespace {

using namespace deltanc;

constexpr int kHops[] = {2, 5, 10, 20};
constexpr const char* kSchedulers[] = {"fifo", "bmux", "edf", "gps:1,1"};
constexpr int kUcPoints = 12;
constexpr int kProfileHops[] = {2, 5, 10};
constexpr const char* kProfileSchedulers[] = {"fifo", "edf", "gps:1,1"};
constexpr int kProfileLevels = 16;

sched::SchedulerSpec spec_of(const char* name) {
  sched::SchedulerSpec spec;
  if (!sched::parse_scheduler(name, spec)) {
    throw std::logic_error(std::string("bad scheduler ") + name);
  }
  return spec;
}

struct Inputs {
  std::vector<SweepGrid> grids;
  std::vector<e2e::Scenario> profiles;
  std::vector<double> epsilons;
};

Inputs make_inputs(std::uint64_t seed) {
  Rng rng(seed ^ 0xF16E5ull);
  Inputs in;
  std::vector<sched::SchedulerSpec> specs;
  for (const char* name : kSchedulers) specs.push_back(spec_of(name));
  for (const int h : kHops) {
    const e2e::Scenario base = ScenarioBuilder()
                                   .hops(h)
                                   .through_utilization(rng.uniform(0.14, 0.16))
                                   .violation_probability(1e-9)
                                   .build();
    std::vector<double> uc = SweepGrid::linspace(0.05, 0.70, kUcPoints);
    for (double& u : uc) u += rng.uniform(-0.008, 0.008);
    SweepGrid grid(base);
    grid.scheduler_axis(specs).cross_utilization_axis(uc);
    in.grids.push_back(std::move(grid));
  }
  for (const int h : kProfileHops) {
    for (const char* name : kProfileSchedulers) {
      e2e::Scenario sc;
      sc.hops = h;
      sc.n_cross = 100 + static_cast<int>(rng.below(11)) - 5;
      sc.scheduler = spec_of(name);
      in.profiles.push_back(sc);
    }
  }
  for (int k = 0; k < kProfileLevels; ++k) {
    in.epsilons.push_back(
        std::pow(10.0, -9.0 + 6.0 * k / (kProfileLevels - 1)));
  }
  return in;
}

/// One repetition's outputs.
struct Rep {
  std::vector<SweepReport> sweeps;
  std::vector<e2e::DelayProfile> profiles;
  std::vector<double> sweep_ms;    ///< wall of each SweepRunner::run call
  std::vector<double> profile_ms;  ///< wall of each solve_profile call
};

Rep run_rep(const Inputs& in, int threads, Tracer& tracer, std::int64_t rep_id) {
  SweepOptions sweep_options;
  sweep_options.threads = threads;
  const SweepRunner runner(sweep_options);
  SolveOptions solve_options;
  solve_options.warm_start = e2e::WarmStart::kWarm;
  const Solver solver(solve_options);

  Rep rep;
  const Scoped root(tracer, "figures.rep", -1, rep_id);
  for (const SweepGrid& grid : in.grids) {
    const Scoped span(tracer, "core.SweepRunner::run", root.id(), rep_id);
    const auto t0 = Clock::now();
    rep.sweeps.push_back(runner.run(grid));
    rep.sweep_ms.push_back(ms_between(t0, Clock::now()));
  }
  for (const e2e::Scenario& sc : in.profiles) {
    const Scoped span(tracer, "e2e.Solver::solve_profile", root.id(), rep_id);
    const auto t0 = Clock::now();
    rep.profiles.push_back(solver.solve_profile(sc, in.epsilons));
    rep.profile_ms.push_back(ms_between(t0, Clock::now()));
  }
  return rep;
}

std::size_t point_count(const Rep& rep) {
  std::size_t n = 0;
  for (const SweepReport& r : rep.sweeps) n += r.points.size();
  return n;
}

std::size_t level_count(const Rep& rep) {
  std::size_t n = 0;
  for (const e2e::DelayProfile& p : rep.profiles) n += p.levels.size();
  return n;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Every delay of `rep` is bit-identical to `ref` (warm chains are a
/// function of the grid alone, so repetitions must agree exactly).
bool same_results(const Rep& ref, const Rep& rep) {
  for (std::size_t g = 0; g < ref.sweeps.size(); ++g) {
    const auto& a = ref.sweeps[g].points;
    const auto& b = rep.sweeps[g].points;
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!same_bits(a[i].bound.delay_ms, b[i].bound.delay_ms)) return false;
    }
  }
  for (std::size_t p = 0; p < ref.profiles.size(); ++p) {
    const auto& a = ref.profiles[p].levels;
    const auto& b = rep.profiles[p].levels;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!same_bits(a[i].delay_ms, b[i].delay_ms)) return false;
    }
  }
  return true;
}

double rel_dev(double warm, double cold) {
  if (std::isinf(warm) && std::isinf(cold)) return 0.0;
  return std::abs(warm - cold) / std::max(std::abs(cold), 1e-300);
}

/// The pinned CCDF goldens of EXPERIMENTS.md ("Delay CCDF profiles"):
/// cold solves of the default 100/100-flow scenario, bit-exact.  The
/// levels are the ones `--ccdf 1e-9:1e-3:4` log-spaces to (not the
/// decimal literals), exactly as the goldens were produced.
void check_goldens(Report& report) {
  static const double kEps[] = {1.0000000000000007e-09, 9.9999999999999943e-08,
                                9.9999999999999974e-06, 0.0010000000000000002};
  static const double kGolden[3][3][4] = {
      {{0x1.2bd93c9d43a66p+4, 0x1.e70ee45a25605p+3, 0x1.750d0d60a5ba8p+3,
        0x1.00bb9cf958cc6p+3},
       {0x1.30296d6fb46e3p+3, 0x1.ef8036a75b5bcp+2, 0x1.7d36a7ed97656p+2,
        0x1.0868d59d7c9e6p+2},
       {0x1.6c17409b8b19dp+2, 0x1.21ab5ae470928p+2, 0x1.acd47b31a2057p+1,
        0x1.1353eb8449dd4p+1}},
      {{0x1.51e413677a7a9p+5, 0x1.1905bbe5b96cap+5, 0x1.bec27e859906ap+4,
        0x1.48f1a488919eap+4},
       {0x1.53ff2a1f5714fp+4, 0x1.1b1ea66b72543p+4, 0x1.c2ed7c20a0bb7p+3,
        0x1.4d102a8a02a94p+3},
       {0x1.6c17409b8b19dp+2, 0x1.21ab5ae470928p+2, 0x1.acd47b31a2057p+1,
        0x1.1353eb8449dd4p+1}},
      {{0x1.50ae83e817c78p+6, 0x1.1c817d81e3bfdp+6, 0x1.cf4d541a75fe2p+5,
        0x1.63812882b9af1p+5},
       {0x1.62f1ed19e5e81p+5, 0x1.2c026df7db7b5p+5, 0x1.e8bf281651f65p+4,
        0x1.7746cd1b778f0p+4},
       {0x1.6c17409b8b19dp+2, 0x1.21ab5ae470928p+2, 0x1.acd47b31a2057p+1,
        0x1.1353eb8449dd4p+1}}};
  const Solver cold{};
  for (int h = 0; h < 3; ++h) {
    for (int s = 0; s < 3; ++s) {
      e2e::Scenario sc;
      sc.hops = kProfileHops[h];
      sc.scheduler = spec_of(kProfileSchedulers[s]);
      const e2e::DelayProfile p = cold.solve_profile(sc, kEps);
      for (int k = 0; k < 4; ++k) {
        char what[160];
        std::snprintf(what, sizeof what,
                      "golden H=%d %s eps=%g: got %a, pinned %a",
                      kProfileHops[h], kProfileSchedulers[s], kEps[k],
                      p.levels[static_cast<std::size_t>(k)].delay_ms,
                      kGolden[h][s][k]);
        report.check(same_bits(p.levels[static_cast<std::size_t>(k)].delay_ms,
                               kGolden[h][s][k]),
                     what);
      }
    }
  }
}

/// Warm answers of a sample of points re-solved cold must agree within
/// the documented warm-start tolerance; every d(eps) must be
/// non-increasing in eps; every point must have solved to a finite bound.
void check_rep(const Inputs& in, const Rep& rep, std::uint64_t seed,
               Report& report) {
  const Solver cold{};
  Rng rng(seed ^ 0xC01Dull);
  for (int k = 0; k < 12; ++k) {
    const SweepReport& sweep = rep.sweeps[rng.below(rep.sweeps.size())];
    const SweepPoint& pt = sweep.points[rng.below(sweep.points.size())];
    const double c = cold.solve(pt.scenario).delay_ms;
    report.check(rel_dev(pt.bound.delay_ms, c) <= kWarmStartRelTol,
                 "warm point deviates from cold: " +
                     std::to_string(pt.bound.delay_ms) + " vs " +
                     std::to_string(c));
  }
  for (int k = 0; k < 4; ++k) {
    const std::size_t p = rng.below(rep.profiles.size());
    const std::size_t level = rng.below(in.epsilons.size());
    e2e::Scenario sc = in.profiles[p];
    sc.epsilon = in.epsilons[level];
    const double c = cold.solve(sc).delay_ms;
    const double w = rep.profiles[p].levels[level].delay_ms;
    report.check(rel_dev(w, c) <= kWarmStartRelTol,
                 "warm profile level deviates from cold: " +
                     std::to_string(w) + " vs " + std::to_string(c));
  }
  for (const e2e::DelayProfile& p : rep.profiles) {
    bool monotone = true;
    for (std::size_t i = 1; i < p.levels.size(); ++i) {
      // epsilons ascend, so delays must not grow (within the warm
      // tolerance the profile self-check allows).
      const double prev = p.levels[i - 1].delay_ms;
      if (p.levels[i].delay_ms > prev * (1.0 + kWarmStartRelTol)) {
        monotone = false;
      }
    }
    report.check(monotone, "d(eps) is not non-increasing");
  }
  bool finite = true;
  for (const SweepReport& sweep : rep.sweeps) {
    for (const SweepPoint& pt : sweep.points) {
      if (!pt.ok || !std::isfinite(pt.bound.delay_ms)) finite = false;
    }
  }
  report.check(finite, "a grid point failed or was unstable");
}

/// A point that consumed no warm state (no warm hint, no reused bracket)
/// was solved cold: the head of a warm chain, as the solver reports it.
bool is_chain_head(const SweepPoint& pt) {
  return pt.bound.stats.warm_start_hits == 0 && pt.bound.stats.brackets_reused == 0;
}

/// Summed solve time of each warm chain of one grid run.  The runner
/// chains along the innermost axis (cross utilization), so a chain is a
/// head and the points after it in grid order up to the next head.
std::vector<double> chain_solve_ms(const SweepReport& sweep) {
  std::vector<double> chains;
  for (const SweepPoint& pt : sweep.points) {
    if (chains.empty() || is_chain_head(pt)) chains.push_back(0.0);
    chains.back() += pt.solve_ms;
  }
  return chains;
}

bool is_kind(const e2e::Scenario& sc, sched::SchedulerKind kind) {
  return sc.scheduler.kind() == kind;
}

/// Deterministic counts of one repetition (they repeat bit-for-bit for a
/// fixed seed, whatever the thread count or the box).
std::map<std::string, double> exact_counts(const Rep& rep) {
  double points = 0, edf_points = 0, edf_iterations = 0, recoveries = 0;
  double optimize_evals = 0, eb_evals = 0, chains = 0;
  for (const SweepReport& sweep : rep.sweeps) {
    for (const SweepPoint& pt : sweep.points) {
      const e2e::SolveStats& s = pt.bound.stats;
      points += 1;
      if (is_chain_head(pt)) chains += 1;
      optimize_evals += static_cast<double>(s.optimize_evals);
      eb_evals += static_cast<double>(s.eb_evals);
      recoveries += s.retries + s.fallbacks;
      if (is_kind(pt.scenario, sched::SchedulerKind::kEdf)) {
        edf_points += 1;
        edf_iterations += s.edf_iterations;
      }
    }
  }
  double profile_evals = 0, levels = 0;
  for (const e2e::DelayProfile& p : rep.profiles) {
    profile_evals += static_cast<double>(p.stats.optimize_evals);
    levels += static_cast<double>(p.levels.size());
  }
  return {
      {"core.chains", chains},
      {"e2e.edf_iterations_per_edf_point", edf_iterations / edf_points},
      {"e2e.recoveries", recoveries},
      {"e2e.optimize_evals_per_point", optimize_evals / points},
      {"e2e.eb_evals_per_point", eb_evals / points},
      {"e2e.profile_evals_per_level", profile_evals / levels},
  };
}

struct Loop {
  std::vector<Rep> reps;      ///< all repetitions
  std::vector<double> rep_s;  ///< wall of each repetition
};

/// Timed loop: repetitions until `seconds` elapse (at least one into
/// `plain`, and one into `traced` when given).  Every repetition is
/// checked against the set-up reference outside the timed region: the
/// same delays bit for bit and the same exact counts.  With `traced`,
/// every other repetition runs under `tracer` and lands there, so the
/// traced and the untraced repetitions interleave and see the same box.
void timed_loop(const Inputs& in, const Context& ctx, double seconds,
                const Rep& ref, Loop& plain, Tracer& tracer, Loop* traced,
                Report& report) {
  Tracer off;
  const std::map<std::string, double> ref_exact = exact_counts(ref);
  const auto start = Clock::now();
  for (std::size_t k = 0; seconds_since(start) < seconds || k < (traced ? 2u : 1u);
       ++k) {
    Loop& loop = traced != nullptr && k % 2 == 1 ? *traced : plain;
    const auto t0 = Clock::now();
    Rep rep = run_rep(in, ctx.threads, &loop == traced ? tracer : off,
                      static_cast<std::int64_t>(k));
    loop.rep_s.push_back(seconds_since(t0));
    report.check(same_results(ref, rep),
                 "a repetition's warm results differ from the first's");
    report.check(exact_counts(rep) == ref_exact,
                 "a repetition's exact counts differ from the first's");
    loop.reps.push_back(std::move(rep));
  }
}

/// Bounds (grid points + profile levels) per second: every repetition
/// solves the same bounds, so this is the count over the median
/// repetition time (a burst of contention on a shared box moves one
/// repetition, not the figure).
double bounds_per_s(const Loop& loop) {
  const Rep& rep = loop.reps.front();
  return static_cast<double>(point_count(rep) + level_count(rep)) / median(loop.rep_s);
}

}  // namespace

Report run_figures(const Context& ctx) {
  Report report;
  Tracer off;

  // Set-up (five times, median): generate the seeded inputs and run one
  // untimed repetition, which also serves as the determinism reference.
  std::vector<double> setups;
  Inputs in;
  Rep ref;
  for (int k = 0; k < 5; ++k) {
    const auto t0 = Clock::now();
    in = make_inputs(ctx.seed);
    ref = run_rep(in, ctx.threads, off, -1);
    setups.push_back(seconds_since(t0));
  }
  check_goldens(report);
  check_rep(in, ref, ctx.seed, report);
  report.exact = exact_counts(ref);

  if (!ctx.trace) {
    Loop loop;
    timed_loop(in, ctx, ctx.seconds, ref, loop, off, nullptr, report);
    // Per grid point solve time, pooled over every repetition (so the p99
    // has more than ten samples beyond it).
    std::vector<double> point_ms;
    for (const Rep& rep : loop.reps) {
      for (const SweepReport& sweep : rep.sweeps) {
        for (const SweepPoint& pt : sweep.points) point_ms.push_back(pt.solve_ms);
      }
    }
    report.metrics["setup_s"] = median(setups);
    report.metrics["throughput_per_s"] = bounds_per_s(loop);
    report.metrics["latency_p50_ms"] = percentile(point_ms, 0.50);
    report.metrics["latency_p99_ms"] = percentile(point_ms, 0.99);
    report.metrics["peak_rss_mb"] = peak_rss_mb();
    return report;
  }

  // Traced run: untraced and traced repetitions alternate; the difference
  // in throughput is the tracing overhead.
  Loop plain;
  Tracer tracer;
  tracer.enabled = true;
  Loop traced;
  timed_loop(in, ctx, ctx.seconds, ref, plain, tracer, &traced, report);
  tracer.write_jsonl(ctx.work / "trace-figures.jsonl");

  auto& m = report.metrics;
  for (const auto& [name, value] : report.exact) m[name] = value;

  std::vector<double> solve_ms, gps_ms;
  double total_ms = 0, edf_ms = 0, scan_ms = 0, refine_ms = 0;
  double optimize_evals = 0, batched = 0, grid_points = 0, warm_hits = 0,
         bracket_hits = 0;
  double sweep_wall_ms = 0, critical = 0, profile_chain_hits = 0,
         profile_chain_slots = 0;
  double points = 0, levels = 0, sweep_s = 0, profile_s = 0;
  for (const Rep& rep : plain.reps) {
    points += static_cast<double>(point_count(rep));
    levels += static_cast<double>(level_count(rep));
    for (const double ms : rep.sweep_ms) sweep_s += ms * 1e-3;
    for (const double ms : rep.profile_ms) profile_s += ms * 1e-3;
  }
  for (const Rep& rep : traced.reps) {
    for (std::size_t g = 0; g < rep.sweeps.size(); ++g) {
      const SweepReport& sweep = rep.sweeps[g];
      const std::vector<double> chains = chain_solve_ms(sweep);
      critical += *std::max_element(chains.begin(), chains.end()) /
                  rep.sweep_ms[g];
      sweep_wall_ms += rep.sweep_ms[g];
      for (const SweepPoint& pt : sweep.points) {
        const e2e::SolveStats& s = pt.bound.stats;
        solve_ms.push_back(pt.solve_ms);
        total_ms += pt.solve_ms;
        scan_ms += s.scan_ms;
        refine_ms += s.refine_ms;
        optimize_evals += static_cast<double>(s.optimize_evals);
        batched += static_cast<double>(s.batched_evals);
        if (is_kind(pt.scenario, sched::SchedulerKind::kEdf)) edf_ms += pt.solve_ms;
        if (is_kind(pt.scenario, sched::SchedulerKind::kGps)) {
          gps_ms.push_back(pt.solve_ms);
        }
        // Over every grid point: chain heads count as misses, so a
        // change that splits chains shows here and in core.chains.
        grid_points += 1;
        if (s.warm_start_hits > 0) warm_hits += 1;
        if (s.brackets_reused > 0) bracket_hits += 1;
      }
    }
    for (const e2e::DelayProfile& p : rep.profiles) {
      profile_chain_hits += static_cast<double>(p.stats.profile_chain_hits);
      profile_chain_slots += static_cast<double>(p.levels.size() - 1);
    }
  }
  const double sweeps =
      static_cast<double>(traced.reps.size() * traced.reps[0].sweeps.size());
  std::vector<double> level_ms;
  for (const double ms : tracer.self_ms("e2e.Solver::solve_profile")) {
    level_ms.push_back(ms / kProfileLevels);
  }
  m["figures.points_per_s"] = points / sweep_s;
  m["figures.profile_levels_per_s"] = levels / profile_s;
  m["e2e.solve_ms.p50"] = percentile(solve_ms, 0.50);
  m["e2e.solve_ms.p99"] = percentile(solve_ms, 0.99);
  m["e2e.edf_solve_share"] = edf_ms / total_ms;
  m["e2e.scan_share"] = scan_ms / total_ms;
  m["e2e.refine_share"] = refine_ms / total_ms;
  m["e2e.batched_eval_share"] = batched / optimize_evals;
  m["e2e.warm_hit_ratio"] = warm_hits / grid_points;
  m["e2e.bracket_reuse_ratio"] = bracket_hits / grid_points;
  m["e2e.curve_backed_ms.p50"] = percentile(gps_ms, 0.50);
  m["e2e.profile_level_ms.p50"] = percentile(level_ms, 0.50);
  m["e2e.profile_chain_hit_ratio"] = profile_chain_hits / profile_chain_slots;
  m["core.parallel_efficiency"] = total_ms / (sweep_wall_ms * ctx.threads);
  m["core.critical_chain_share"] = critical / sweeps;
  m["trace.overhead_share"] = 1.0 - bounds_per_s(traced) / bounds_per_s(plain);
  return report;
}

}  // namespace perfbench
