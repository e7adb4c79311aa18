#!/usr/bin/env bash
# Full verification: configure, build (warnings-as-errors), run the test
# suite, re-run it under ThreadSanitizer (the sweep engine is concurrent;
# races must fail loudly) and under ASan+UBSan (memory and UB bugs in the
# numeric hot path), run every bench binary (several enforce invariants
# via their exit codes), smoke-test the examples and the CLI (including
# the parallel sweep mode and the --selfcheck invariant battery), and
# verify the multi-violation scenario validation.
set -euo pipefail
cd "$(dirname "$0")/.."

# No -G here: an existing build/ reuses its cached generator (the seed
# tree is Unix Makefiles; forcing Ninja onto it is a hard CMake error).
cmake -B build
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure

# --- Benchmark harness: compile only ---------------------------------------
# perfbench/ is its own CMake project over src/ and tools/, and nothing
# else compiles it, so a library signature change could break the
# benchmark unseen.  It gets its own build tree, never .bench_build
# (perfbench/run.py's default, whose cache may point at another
# checkout).
cmake -S perfbench -B build-perfbench
cmake --build build-perfbench -j "$(nproc)"

# --- Public-header hygiene ------------------------------------------------
# Every header under include/deltanc/ must compile standalone (no hidden
# include-order dependencies): users are told to include them directly.
for h in include/deltanc/*.h; do
  echo "#include \"${h#include/}\"" | c++ -std=c++20 -fsyntax-only \
    -Wall -Wextra -Werror -I include -I src -x c++ -
done
echo "public-header hygiene: OK"

# --- ThreadSanitizer pass -------------------------------------------------
# Race-checks the concurrency layer (parallel_for in core/thread_pool.h,
# which fans out every sweep and batch, and the serve workers) on every
# run.  Gated on libtsan being installed; TSAN_OPTIONS makes any report
# fatal so ctest sees the failure.
if echo 'int main(){return 0;}' | c++ -fsanitize=thread -x c++ - \
     -o /tmp/deltanc_tsan_probe 2>/dev/null; then
  rm -f /tmp/deltanc_tsan_probe
  cmake -B build-tsan -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure
else
  echo "WARNING: ThreadSanitizer unavailable (no libtsan?); skipping race check" >&2
fi

# --- Address + UndefinedBehavior Sanitizer pass ---------------------------
# Memory- and UB-checks the whole suite (the solver leans on aggressive
# floating-point reasoning; out-of-domain arithmetic must fail loudly).
# Gated on sanitizer availability like the TSan pass above.
if echo 'int main(){return 0;}' | c++ -fsanitize=address,undefined -x c++ - \
     -o /tmp/deltanc_asan_probe 2>/dev/null; then
  rm -f /tmp/deltanc_asan_probe
  cmake -B build-asan -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build build-asan
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir build-asan --output-on-failure
else
  echo "WARNING: ASan/UBSan unavailable; skipping memory/UB check" >&2
fi

for b in build/bench/*; do
  # serve_load is a load-generator client, not a self-contained bench:
  # it needs a live --serve socket and exits 2 without one.  It is
  # exercised end-to-end by scripts/check_serve.sh (the serve_e2e test).
  if [ "$(basename "$b")" = "serve_load" ]; then continue; fi
  if [ -f "$b" ] && [ -x "$b" ]; then
    echo "===== $b ====="
    "$b"
  fi
done

for e in build/examples/*; do
  if [ -f "$e" ] && [ -x "$e" ]; then
    echo "===== $e ====="
    "$e" > /dev/null
  fi
done
./build/tools/deltanc_cli --hops 2 > /dev/null
./build/tools/deltanc_cli --epsilon 1e-6 \
  --sweep uc=0.2:0.6:3 --sweep scheduler=fifo,edf --csv > /dev/null

# --- Stream discipline: machine modes keep stdout pure --------------------
# --csv stdout must be nothing but the CSV (header + one row per point);
# --batch / --emit-batch stdout must be nothing but JSONL (each line must
# survive the CLI's own strict linter).
csv_out=$(mktemp)
./build/tools/deltanc_cli --epsilon 1e-6 \
  --sweep uc=0.2:0.6:3 --csv > "$csv_out" 2>/dev/null
if [ "$(wc -l < "$csv_out")" -ne 4 ]; then
  echo "FAIL: --csv stdout not pure CSV (want 1 header + 3 rows):"
  cat "$csv_out"; exit 1
fi
awk -F, 'NR == 1 && NF < 5 { print "FAIL: csv header looks wrong"; exit 1 }' \
  "$csv_out"
rm -f "$csv_out"

emit_out=$(mktemp)
./build/tools/deltanc_cli --epsilon 1e-6 --sweep uc=0.2:0.6:3 \
  --emit-batch > "$emit_out" 2>/dev/null
./build/tools/deltanc_cli --lint-jsonl "$emit_out" 2>/dev/null
batch_out=$(mktemp)
./build/tools/deltanc_cli --batch "$emit_out" > "$batch_out" 2>/dev/null
./build/tools/deltanc_cli --lint-jsonl "$batch_out" 2>/dev/null
rm -f "$emit_out" "$batch_out"
echo "stream discipline: OK"

# --- Scheduler identity gates ---------------------------------------------
# The canonical scheduler name strings are spelled ONLY in the
# sched/scheduler_spec.{h,cpp} registry: any other src/ or tools/ code
# (comments excepted) hard-coding them bypasses the single source of
# truth and will drift from the parser/codec/CLI vocabulary.
name_hits=$(grep -rn --include='*.cpp' --include='*.h' -E '"(fifo|bmux|sp-high|gps|drr|sced)"' \
  src tools include bench examples \
  | grep -v 'sched/scheduler_spec\.' | grep -vE ':[0-9]+: *//' || true)
if [ -n "$name_hits" ]; then
  echo "FAIL: scheduler name literals outside the registry:"
  echo "$name_hits"; exit 1
fi
echo "scheduler name registry gate: OK"

# The continuous Delta axis must pin to the named schedulers at its
# endpoints -- delay(delta=0) bit-identical to the fifo column,
# delay(delta=inf) to bmux -- and the curve must be non-decreasing in
# Delta (more precedence for cross traffic never helps the through
# class).  --warm-start cold: this gate compares CSV delay strings
# byte-for-byte, so both sweeps must run the bit-exact cold path (warm
# chaining is only guaranteed to agree within kWarmStartRelTol).
delta_csv=$(mktemp); sched_csv=$(mktemp)
./build/tools/deltanc_cli --hops 5 --epsilon 1e-6 --warm-start cold \
  --sweep delta=0,1,5,inf --csv > "$delta_csv" 2>/dev/null
./build/tools/deltanc_cli --hops 5 --epsilon 1e-6 --warm-start cold \
  --sweep scheduler=fifo,bmux --csv > "$sched_csv" 2>/dev/null
awk -F, '
  NR == FNR { if (FNR > 1) named[FNR - 2] = $8; next }
  FNR > 1 { d[FNR - 2] = $8; n = FNR - 1 }
  END {
    if (n < 2 || length(named) != 2) { print "FAIL: delta smoke produced no rows"; exit 1 }
    if (d[0] != named[0]) { print "FAIL: delta=0 delay " d[0] " != fifo " named[0]; exit 1 }
    if (d[n - 1] != named[1]) { print "FAIL: delta=inf delay " d[n - 1] " != bmux " named[1]; exit 1 }
    for (i = 1; i < n; ++i) if (d[i] + 0 < d[i - 1] + 0) {
      print "FAIL: delta curve not monotone at step " i; exit 1
    }
  }' "$sched_csv" "$delta_csv"
rm -f "$delta_csv" "$sched_csv"
echo "delta axis endpoint gate: OK"

# --- Batch service + persistent cache guard -------------------------------
# Fig. 2 grid cold vs warm: >= 95% cache hits and >= 5x internal speedup
# on the second run, bit-identical responses (scripts/check_batch.sh).
./scripts/check_batch.sh ./build/tools/deltanc_cli

# Runs `deltanc_cli <args> --selfcheck` and compares its summary line
# with the expected one.  Exit code 1 (a violated invariant) fails the
# script through set -e; the point and check counts prove that every
# comparison still runs, so a change that adds or drops a law updates
# the expected line.
expect_selfcheck() {
  local want="$1"
  shift
  local got
  got=$(./build/tools/deltanc_cli "$@" --selfcheck | grep '^self-check: [0-9]')
  if [ "$got" != "$want" ]; then
    echo "FAIL: deltanc_cli $* --selfcheck printed '$got', want '$want'"
    exit 1
  fi
}

# Invariant self-check over the full Fig. 2-4 operating grids: scheduler
# ordering, monotonicity in H/U/eps, exact-vs-paper-K agreement,
# finiteness, warm-vs-cold agreement, delay profiles.
expect_selfcheck "self-check: 2382 points, 5490 checks, 0 issue(s)"

# Curve-backed scheduler battery (GPS/DRR/SCED): share/quantum
# monotonicity, GPS(1,1) below the per-hop SP-high analysis, GPS below
# DRR at the same split, sced == gps on symmetric loads, GPS isolation
# (finite bound at total overload while BMUX diverges), and the
# simulation cross-check (slot-level quantiles under the bounds).  Every
# curve-backed spelling must select the battery and exit 0 -- drr and
# sced once had no simulation lowering and threw here.
for spec in gps:1,1 drr:1,1 sced; do
  expect_selfcheck "self-check: 81 points, 249 checks, 0 issue(s)" \
    --scheduler "$spec"
done
echo "selfcheck summaries: OK"

# A curve-backed spec must ride the sweep/CSV stack like any other
# scheduler name, including weight lists whose commas overlap the value
# separator (maximal-munch list parsing).
./build/tools/deltanc_cli --hops 5 --epsilon 1e-6 \
  --sweep 'scheduler=fifo,gps:1,1,drr:2,1,sced' --csv > /dev/null

# A deliberately invalid scenario must be rejected with exit code 2 and a
# message naming every bad field (multi-violation validation).
set +e
./build/tools/deltanc_cli --capacity -5 --hops 0 2>/tmp/deltanc_invalid_err
invalid_rc=$?
set -e
if [ "$invalid_rc" -ne 2 ]; then
  echo "FAIL: invalid scenario exited $invalid_rc (want 2)"; exit 1
fi
grep -q "capacity" /tmp/deltanc_invalid_err
grep -q "hops" /tmp/deltanc_invalid_err
rm -f /tmp/deltanc_invalid_err

# Numeric flags use the strict locale-independent grammar: the lenient
# strtod path silently read "--capacity 0x50" as 80 -- it must be a
# usage error (exit 2) now, as must a whitespace-padded weight.
set +e
./build/tools/deltanc_cli --capacity 0x50 2>/dev/null
hex_rc=$?
./build/tools/deltanc_cli --scheduler 'gps: 2,1' 2>/dev/null
ws_rc=$?
set -e
if [ "$hex_rc" -ne 2 ] || [ "$ws_rc" -ne 2 ]; then
  echo "FAIL: lenient numeric parse accepted (hex rc=$hex_rc, ws rc=$ws_rc, want 2)"
  exit 1
fi
# Integer flags take whole numbers within their type's range: a fraction
# once truncated silently ("--hops 2.5" solved H = 2), an out-of-range
# value was cast with undefined behavior, and an oversized sweep step
# count aborted on an uncaught exception.  All three are usage errors.
for int_args in "--hops 2.5" "--hops 1e10" "--sweep uc=0.1:0.2:1e12"; do
  set +e
  # shellcheck disable=SC2086  # word-split the flag and its value
  ./build/tools/deltanc_cli $int_args > /dev/null 2>&1
  int_rc=$?
  set -e
  if [ "$int_rc" -ne 2 ]; then
    echo "FAIL: '$int_args' exited $int_rc (want 2: strict integer flag)"
    exit 1
  fi
done
echo "strict numeric grammar gate: OK"

# --- Solver instrumentation guards ----------------------------------------
# Run the Fig. 2 grid via the CLI with --stats and fail on eval-count
# regressions: more than one eb(s) per s probe (eb_evals creeping toward
# one per optimizer evaluation), a blow-up of the nested search, a diverging
# EDF fixed point, or warm chaining silently disabling itself.  Wall-clock
# regressions are gated end to end by the perfbench/ benchmark.
sweep_err=$(./build/tools/deltanc_cli --hops 5 --epsilon 1e-6 \
  --sweep uc=0.1:0.8:8 --sweep scheduler=fifo,bmux,edf --stats --csv \
  2>&1 >/dev/null)
stats_line=$(echo "$sweep_err" | grep '^stats:')
chains=$(echo "$sweep_err" | grep '^sweep: .* chains=' |
  sed 's/.* chains=\([0-9]*\).*/\1/')
echo "$stats_line chains=$chains"
echo "$stats_line chains=$chains" | awk '{
  for (i = 2; i <= NF; ++i) { split($i, kv, "="); v[kv[1]] = kv[2] }
  if (v["optimize_evals"] <= 0) {
    print "FAIL: no stats reported"; exit 1
  }
  if (v["eb_evals"] * 10 > v["optimize_evals"]) {
    print "FAIL: more than one eb(s) per s probe (eb_evals=" v["eb_evals"] \
          ", optimize_evals=" v["optimize_evals"] ")"; exit 1
  }
  if (v["optimize_evals"] > 1200000) {
    print "FAIL: solver eval count regressed (optimize_evals=" \
          v["optimize_evals"] ", budget 1200000)"; exit 1
  }
  if (v["edf_converged"] != "yes") {
    print "FAIL: EDF fixed point did not converge"; exit 1
  }
  # Warm chaining is the default sweep mode, and its decomposition is a
  # function of the grid alone: 3 chains of 8 points along uc, each run
  # as 2 segments of 4, so 6 segments whose 6 cold heads take no warm
  # hint and whose other 18 points take exactly one each.
  if (v["chains"] != 6) {
    print "FAIL: sweep ran " v["chains"] " chain segments (want 6)"; exit 1
  }
  if (v["warm_start_hits"] != 18) {
    print "FAIL: warm-start hits " v["warm_start_hits"] " (want 18: 24" \
          " points in 6 segments of 4)"; exit 1
  }
}'
# --- Delay-profile gates --------------------------------------------------
# Profile CSV is machine output: two identical runs (default warm
# chaining included) must be byte-identical.
prof_a=$(mktemp); prof_b=$(mktemp)
./build/tools/deltanc_cli --sweep hops=2,5 --sweep scheduler=fifo,edf \
  --ccdf 1e-6:1e-3:3 --csv > "$prof_a" 2>/dev/null
./build/tools/deltanc_cli --sweep hops=2,5 --sweep scheduler=fifo,edf \
  --ccdf 1e-6:1e-3:3 --csv > "$prof_b" 2>/dev/null
if ! cmp -s "$prof_a" "$prof_b"; then
  echo "FAIL: --ccdf profile CSV is not deterministic:"
  diff "$prof_a" "$prof_b" | head -5; exit 1
fi
if [ "$(wc -l < "$prof_a")" -ne 13 ]; then
  echo "FAIL: profile CSV row count (want 1 header + 4 points x 3 levels):"
  cat "$prof_a"; exit 1
fi
rm -f "$prof_a" "$prof_b"
echo "profile CSV determinism gate: OK"

# The pinning contract, end to end through the CLI: every level of a
# cold profile must be byte-identical to an independent scalar solve at
# that level's epsilon.  Epsilons ride the %.17g CSV round trip, so
# feeding the printed field back through --epsilon reconstructs the
# exact double; the scalar --csv row shares the profile-CSV shape, so
# the gate is a literal string compare per level.
ccdf_rows=$(mktemp)
./build/tools/deltanc_cli --hops 5 --uc 0.7 --warm-start cold \
  --ccdf 1e-9:1e-3:4 2>/dev/null | tail -n +2 > "$ccdf_rows"
while IFS= read -r row; do
  eps=$(echo "$row" | awk -F, '{ print $7 }')
  scalar_row=$(./build/tools/deltanc_cli --hops 5 --uc 0.7 \
    --epsilon "$eps" --csv 2>/dev/null | tail -n +2)
  if [ "$row" != "$scalar_row" ]; then
    echo "FAIL: cold profile level not pinned to the scalar solve at eps=$eps:"
    echo "  profile: $row"
    echo "  scalar:  $scalar_row"; exit 1
  fi
done < "$ccdf_rows"
rm -f "$ccdf_rows"
echo "profile pinning gate: OK (4 levels byte-identical to scalar solves)"

# Profile requests ride the batch protocol and the persistent cache:
# --emit-batch --ccdf emits profile requests (strict-lint clean), a
# second run answers every one from cache bit-identically (only the
# "cache" tag differs: miss vs hit), and doctoring every stored entry to
# the previous wire schema (N -> N-1, N read from the emitted requests)
# classifies ALL of them stale -- zero
# hits, zero wrong answers, full re-solve.  (Entries written under the
# older schema-4, -5 and -6 key spellings are plain misses, pinned by
# the result_cache ctest; this smoke covers the stored-schema staleness
# rule end to end.)
prof_dir=$(mktemp -d)
./build/tools/deltanc_cli --hops 3 --sweep uc=0.2:0.6:3 \
  --ccdf 1e-6:1e-3:3 --emit-batch > "$prof_dir/req.jsonl" 2>/dev/null
./build/tools/deltanc_cli --lint-jsonl "$prof_dir/req.jsonl" 2>/dev/null
grep -q '"epsilons":\[' "$prof_dir/req.jsonl" || {
  echo "FAIL: --emit-batch --ccdf did not emit profile requests"; exit 1
}
./build/tools/deltanc_cli --batch "$prof_dir/req.jsonl" \
  --cache-dir "$prof_dir/cache" > "$prof_dir/cold.jsonl" 2>/dev/null
./build/tools/deltanc_cli --lint-jsonl "$prof_dir/cold.jsonl" 2>/dev/null
./build/tools/deltanc_cli --batch "$prof_dir/req.jsonl" \
  --cache-dir "$prof_dir/cache" > "$prof_dir/warm.jsonl" 2> "$prof_dir/warm.err"
grep -q 'hits=3 misses=0 stale=0' "$prof_dir/warm.err" || {
  echo "FAIL: warm profile batch missed the cache:"
  cat "$prof_dir/warm.err"; exit 1
}
strip_cache_tag() {
  sed -e 's/"cache":"[a-z]*",//' "$1"
}
if ! cmp -s <(strip_cache_tag "$prof_dir/cold.jsonl") \
            <(strip_cache_tag "$prof_dir/warm.jsonl"); then
  echo "FAIL: cached profile responses differ from solved ones"; exit 1
fi
schema=$(sed -n '1s/^{"schema":\([0-9][0-9]*\),.*/\1/p' "$prof_dir/req.jsonl")
[ -n "$schema" ] || { echo "FAIL: no \"schema\" in --emit-batch output"; exit 1; }
find "$prof_dir/cache" -type f -name '*.json' \
  -exec sed -i "s/\"schema\":$schema/\"schema\":$((schema - 1))/" {} +
./build/tools/deltanc_cli --batch "$prof_dir/req.jsonl" \
  --cache-dir "$prof_dir/cache" > "$prof_dir/stale.jsonl" 2> "$prof_dir/stale.err"
grep -q 'hits=0 misses=0 stale=3' "$prof_dir/stale.err" || {
  echo "FAIL: schema-$((schema - 1)) entries were not all classified stale:"
  cat "$prof_dir/stale.err"; exit 1
}
if ! cmp -s <(strip_cache_tag "$prof_dir/cold.jsonl") \
            <(strip_cache_tag "$prof_dir/stale.jsonl"); then
  echo "FAIL: stale-migration re-solve changed the answers"; exit 1
fi
rm -rf "$prof_dir"
echo "profile batch + schema-migration gate: OK"

# The warm descending-eps chain must actually pay for itself: on a
# 16-level profile it measured 3.8x fewer optimizer evaluations than 16
# cold solves (EXPERIMENTS.md "Profile engine cost"); gate at 3x.  The
# same stderr line must carry live profile counters -- every level
# counted, every post-seed level a chain hit.
cold_stats=$(./build/tools/deltanc_cli --hops 5 --n0 100 --nc 236 \
  --ccdf 1e-9:1e-3:16 --warm-start cold --stats 2>&1 >/dev/null \
  | grep '^stats:')
warm_stats=$(./build/tools/deltanc_cli --hops 5 --n0 100 --nc 236 \
  --ccdf 1e-9:1e-3:16 --warm-start warm --stats 2>&1 >/dev/null \
  | grep '^stats:')
echo "profile cold: $cold_stats"
echo "profile warm: $warm_stats"
awk -v cold="$cold_stats" -v warm="$warm_stats" 'BEGIN {
  split(cold, cf, " "); for (i in cf) { split(cf[i], kv, "="); c[kv[1]] = kv[2] }
  split(warm, wf, " "); for (i in wf) { split(wf[i], kv, "="); w[kv[1]] = kv[2] }
  if (c["profile_levels"] + 0 != 16 || w["profile_levels"] + 0 != 16) {
    print "FAIL: profile_levels counter not live (cold=" c["profile_levels"] \
          ", warm=" w["profile_levels"] ")"; exit 1
  }
  if (c["profile_chain_hits"] + 0 != 0) {
    print "FAIL: cold profile reported chain hits (" c["profile_chain_hits"] ")"
    exit 1
  }
  if (w["profile_chain_hits"] + 0 != 15) {
    print "FAIL: warm chain hits " w["profile_chain_hits"] " (want 15/15)"
    exit 1
  }
  ratio = (c["optimize_evals"] + 0) / (w["optimize_evals"] + 1e-9)
  if (ratio < 3) {
    printf "FAIL: warm profile only %.2fx cheaper than cold (want >= 3x)\n", ratio
    exit 1
  }
  printf "profile warm-chain gate: OK (%.2fx fewer optimizer evals, 15/15 chain hits)\n", ratio
}'

echo "ALL CHECKS PASSED"
