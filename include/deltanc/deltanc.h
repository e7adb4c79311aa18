// Umbrella header: the supported public surface of the library in one
// include.  Everything re-exported here is covered by the API tour in
// docs/API.md, round-trips through the JSON codec where applicable, and
// is kept stable across minor versions; headers under src/ that are not
// re-exported here are internal machinery and may change freely.
//
//   #include "deltanc/deltanc.h"
//
//   using namespace deltanc;
//   const e2e::Scenario sc = ScenarioBuilder().hops(5).build();
//   const e2e::BoundResult r = Solver().solve(sc);
//
// The DELTANC_VERSION_{MAJOR,MINOR,PATCH} macro trio lives in
// deltanc/version.h (also included here); the version string feeds the
// persistent result cache so stale entries are never served.
#pragma once

#include "deltanc/version.h"

// Scheduler identity: one tagged descriptor spanning solver, sweep,
// cache, CLI, and both simulators.
#include "sched/scheduler_spec.h"  // sched::SchedulerSpec, SchedulerKind

// Scenario description and validation.
#include "core/scenario.h"   // ScenarioBuilder, flows_for_utilization
#include "e2e/param_search.h"  // e2e::Scenario, BoundResult, SolveStats

// Solving: the Solver facade is the sole entry point (the historical
// free-function shims were retired in PR 9; see docs/API.md for the
// migration table).  Solver::State carries warm-start context between
// related solves.
#include "e2e/solver.h"  // Solver, SolveOptions, Solver::State

// One-scenario analysis and grids of scenarios.
#include "core/analyzer.h"  // PathAnalyzer, ValidationReport
#include "core/sweep.h"     // SweepGrid, SweepRunner, SweepReport

// Diagnostics taxonomy and invariant self-checks.
#include "core/diagnostics.h"  // diag::SolveErrorKind, Diagnostics, ...
#include "core/selfcheck.h"    // self_check, SelfCheckReport

// Serialization, persistent result cache, batch service.
#include "io/batch.h"         // io::run_batch, BatchOptions, BatchSummary
#include "io/codec.h"         // io::encode_*/decode_*, solve_cache_key
#include "io/json.h"          // io::json::Document, Node, Value
#include "io/result_cache.h"  // io::ResultCache, CacheStats
