#!/usr/bin/env bash
# `deltanc_cli` declares every flag once, with the modes that read it.
# This checks the three promises that follow from that:
#   (a) a flag its mode does not read is a usage error (exit 2) naming
#       the flag, as is a second mode flag;
#   (b) --edf-own / --edf-cross reach the edf points of a
#       --sweep scheduler=... axis whatever --scheduler says, so the
#       sweep CSV is the same with and without --scheduler edf (except
#       the per-point solve time);
#   (c) the flags --help prints and the flags of README.md's flag table
#       are the same set.
# Registered as the `cli_flags` ctest.
#
# usage: check_cli.sh [deltanc_cli]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CLI="${1:-$ROOT/build/tools/deltanc_cli}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# ----- (a) ----------------------------------------------------------------
F="$WORK/requests.jsonl"
: > "$F"
expect_rejected() {  # expect_rejected <flag named on stderr> <args...>
  local flag="$1" rc=0
  shift
  "$CLI" "$@" > /dev/null 2> "$WORK/err" || rc=$?
  if [ "$rc" -ne 2 ] || ! head -n 1 "$WORK/err" | grep -qF -- "$flag"; then
    echo "FAIL: deltanc_cli $* exited $rc, want 2 naming $flag:"
    head -n 3 "$WORK/err"
    exit 1
  fi
}
expect_rejected --batch --lint-jsonl "$F" --batch "$F"
expect_rejected --hops --batch "$F" --hops 7
expect_rejected --cache-dir --hops 3 --cache-dir "$WORK/cache"
expect_rejected --serve-workers --serve-workers 3
expect_rejected --warm-start --warm-start cold
expect_rejected --threads --threads 2
expect_rejected --threads --threads 2 --ccdf 1e-6:1e-3:3
expect_rejected --stats --selfcheck --stats
expect_rejected --warm-start --emit-batch --warm-start warm
expect_rejected --method --report --method paper-k
expect_rejected --additive --report --additive
expect_rejected --csv --ccdf 1e-6:1e-3:3 --csv
echo "cli_flags: flags outside their modes are usage errors"

# ----- (b) ----------------------------------------------------------------
edf_sweep() {
  "$CLI" --hops 5 --uc 0.5 --sweep scheduler=fifo,edf --edf-own 3 \
    --edf-cross 5 --warm-start cold --csv "$@" 2> /dev/null |
    cut -d, -f1-11,13
}
edf_sweep > "$WORK/base_fifo.csv"
edf_sweep --scheduler edf > "$WORK/base_edf.csv"
if ! cmp -s "$WORK/base_fifo.csv" "$WORK/base_edf.csv"; then
  echo "FAIL: --edf-own/--edf-cross depend on --scheduler:"
  diff "$WORK/base_fifo.csv" "$WORK/base_edf.csv"
  exit 1
fi
echo "cli_flags: EDF factors reach the sweep's edf points"

# ----- (c) ----------------------------------------------------------------
"$CLI" --help | grep -oE '^  --[a-z0-9-]+' | sed 's/^  //' | sort -u \
  > "$WORK/help_flags"
awk '/^### `deltanc_cli` flags/ { on = 1; next } /^#/ { on = 0 }
     on && /^\| `--/' "$ROOT/README.md" | cut -d'|' -f2 |
  grep -oE -- '--[a-z0-9-]+' | sort -u > "$WORK/readme_flags"
if [ ! -s "$WORK/help_flags" ] ||
   ! cmp -s "$WORK/help_flags" "$WORK/readme_flags"; then
  echo "FAIL: --help flags (<) differ from README.md's flag table (>):"
  diff "$WORK/help_flags" "$WORK/readme_flags" || true
  exit 1
fi
echo "cli_flags: --help and README.md list the same $(wc -l < "$WORK/help_flags") flags"
