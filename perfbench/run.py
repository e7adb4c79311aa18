#!/usr/bin/env python3
"""deltanc benchmark: builds the library, the CLI and the harness from
source, runs one workload, and prints one JSON result line.

    python3 perfbench/run.py --workload figures|batch_warm \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build)/cmake; working files (caches, sockets, traces) to
.../work/<workload>.  The last stdout line is

    {"correct": bool, "attempted": n, "failed": n,
     "metrics": {name: {"value": v, "unit": u}, ...}}

with every end-to-end metric of BENCHMARK.json when --trace 0 and every
per-layer metric when --trace 1.  Each per-layer metric belongs to one
workload's traced run (see OWNER); the other workload bypasses that
layer and reports it as 0.  A metric a run owns but did not report, or
reported as non-finite (null), fails the run.  The traced batch_warm
run also drives `deltanc_cli --serve` under the serve_mixed traffic mix
for the serve layer's metrics.

End-to-end metrics, per workload (measured with tracing off):

  setup_s           figures: input generation + one untimed repetition;
                    batch_warm: the cold run_batch that fills the cache.
                    Median of five set-ups.
  throughput_per_s  figures: bounds per second (grid points + profile
                    levels) over the median repetition; batch_warm:
                    responses per second.
  latency_p50_ms /  figures: per grid point solve, pooled over the
  latency_p99_ms    repetitions; batch_warm: per run_batch call of 8
                    request lines.
  peak_rss_mb       the harness process.

batch_warm's timed calls rotate over the allowed CPUs; each of its
figures is taken per CPU (medians over windows of that CPU's calls) and
averaged over the CPUs.

Counts marked exact in the harness repeat bit-for-bit for a fixed seed
and fixed code: they are kept per (workload, seed, digest of the sources
the benchmark builds) under .../exact, and a drift fails the run loudly.
A change to the code starts a new record instead.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170
# The source trees the benchmark builds (perfbench/CMakeLists.txt).
SOURCES = ("src", "include", "tools", "perfbench")
# The workload whose traced run reports each per-layer metric, by name
# prefix (the first match wins); both report the SHARED ones.
OWNER = (("figures.", "figures"), ("e2e.cold_solve_ms.", "batch_warm"),
         ("e2e.", "figures"), ("core.", "figures"), ("batch.", "batch_warm"),
         ("io.", "batch_warm"), ("serve.", "batch_warm"),
         ("cli.", "batch_warm"), ("loadgen.", "batch_warm"))
SHARED = ("failed_share", "trace.overhead_share")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    if rc != 0:
        fail("failed (rc %d): %s" % (rc, " ".join(cmd)))


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        # The repository's default build type, minus -g: the same code,
        # without hundreds of MB of debug info to write out.
        run_checked(["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                     "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O2 -DNDEBUG"], 300)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    run_checked(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                 "deltanc_perfbench", "deltanc_cli"], 840)
    # Flush the build's writes so kernel writeback does not compete with
    # the measurement that follows.
    os.sync()
    return (os.path.join(cmake_dir, "deltanc_perfbench"),
            os.path.join(cmake_dir, "deltanc_tools", "deltanc_cli"))


def run_harness(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("harness timed out")
    if proc.returncode != 0:
        fail("harness failed (rc %d)" % proc.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    return json.loads(lines[-1])


def code_digest():
    """A digest of every file of the source trees the benchmark builds."""
    digest = hashlib.sha256()
    for top in SOURCES:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
                digest.update(b"\0")
    return digest.hexdigest()[:16]


def check_exact(build_dir, workload, seed, exact):
    """Compares the exact counts with earlier runs of the same seed and
    the same code (a traced run reports more of them than an untraced
    one); returns the names that drifted and records any new ones."""
    ledger_dir = os.path.join(build_dir, "exact")
    os.makedirs(ledger_dir, exist_ok=True)
    path = os.path.join(ledger_dir,
                        "%s-%d-%s.json" % (workload, seed, code_digest()))
    before = {}
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
    drift = sorted(k for k in set(before) & set(exact) if before[k] != exact[k])
    if not drift and not set(exact) <= set(before):
        with open(path, "w") as f:
            json.dump({**before, **exact}, f, sort_keys=True)
    return drift


def owner(name):
    """The workload whose traced run reports `name`; None for both."""
    if name in SHARED:
        return None
    for prefix, workload in OWNER:
        if name.startswith(prefix):
            return workload
    fail("no workload owns the per-layer metric %s" % name)


def main():
    for needed in ("src/CMakeLists.txt", "tools/deltanc_cli.cpp",
                   "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("missing %s: run from a full deltanc checkout" % needed)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    harness, cli = build(build_dir)
    # Relative to the checkout root (the harness's cwd), so the Unix
    # socket paths stay short.
    work = os.path.relpath(os.path.join(build_dir, "work", args.workload), ROOT)
    raw = run_harness([harness, "--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", repr(args.seconds),
                       "--trace", str(args.trace), "--work", work,
                       "--cli", cli])

    correct = bool(raw["correct"])
    failed = int(raw["failed"])
    drift = check_exact(build_dir, args.workload, args.seed, raw["exact"])
    if drift:
        print("perfbench: DETERMINISM FAILURE: exact counts drifted for "
              "seed %d: %s" % (args.seed, ", ".join(drift)), file=sys.stderr)
        correct = False
        failed += len(drift)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    unknown = set(raw["metrics"]) - {m["name"] for m in wanted}
    if unknown:
        fail("harness reported unlisted metrics: " + ", ".join(sorted(unknown)))
    metrics = {}
    for m in wanted:
        name = m["name"]
        owned = not args.trace or owner(name) in (None, args.workload)
        if name not in raw["metrics"]:
            if owned:
                fail("harness did not report %s" % name)
            value = 0  # the workload bypasses this layer
        else:
            value = raw["metrics"][name]
            if value is None:  # the harness prints NaN and inf as null
                fail("harness reported a non-finite %s" % name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct and failed == 0,
                      "attempted": int(raw["attempted"]),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
