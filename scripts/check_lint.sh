#!/usr/bin/env bash
# `deltanc_cli --lint-jsonl` decodes every payload a line carries: a
# response's "profile" (through the delay-profile decoder) as well as
# its "result", and a request's "epsilons" under the batch request
# rules.  A line without "ok" is a request under --batch's own rule; a
# response with "ok":true needs a "result" or a "profile", and one with
# "ok":false a string "error".  Each input below is valid JSON with the
# supported schema (read from a request the CLI itself writes, so a
# schema bump cannot make the inputs fail on their schema alone), so
# only those rules can find it malformed.
# Registered as the `lint_jsonl` ctest.
#
# usage: check_lint.sh [deltanc_cli]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CLI="${1:-$ROOT/build/tools/deltanc_cli}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

expect_lint() {  # expect_lint <file> <summary line>
  local rc=0
  "$CLI" --lint-jsonl "$1" 2> "$WORK/lint.err" || rc=$?
  if [ "$rc" -ne 1 ] || ! grep -qxF "lint: $2" "$WORK/lint.err"; then
    echo "FAIL: --lint-jsonl $(basename "$1") exited $rc, want 1 and \"$2\":"
    cat "$WORK/lint.err"
    exit 1
  fi
}

schema=$("$CLI" --emit-batch 2>/dev/null |
  sed -n '1s/^{"schema":\([0-9][0-9]*\),.*/\1/p')
if [ -z "$schema" ]; then
  echo "FAIL: no \"schema\" in the first deltanc_cli --emit-batch line"
  exit 1
fi

cat > "$WORK/responses.jsonl" <<JSONL
{"schema":$schema,"id":1,"ok":true,"profile":{"epsilons":[0.5],"levels":"not-a-list"}}
{"schema":$schema,"id":2,"ok":true,"result":{"delay_ms":"soon"}}
JSONL
expect_lint "$WORK/responses.jsonl" "2 line(s) checked, 2 malformed"

scenario='{"capacity":100,"hops":3,"n_through":80,"n_cross":50,"epsilon":1e-6,"scheduler":"fifo"}'
cat > "$WORK/requests.jsonl" <<JSONL
{"schema":$schema,"id":1,"scenario":$scenario,"epsilons":[0.001,0.5]}
{"schema":$schema,"id":2,"scenario":$scenario,"epsilons":[0.001,1]}
{"schema":$schema,"id":3,"scenario":$scenario,"epsilons":[]}
JSONL
expect_lint "$WORK/requests.jsonl" "3 line(s) checked, 2 malformed"

# Shapes that are neither a request --batch would answer nor a whole
# response: an ok response without a payload, a request without a
# scenario (twice), a failed response without its error.
cat > "$WORK/shapes.jsonl" <<JSONL
{"schema":$schema,"id":1,"ok":true}
{"schema":$schema,"id":2}
{"schema":$schema,"id":3,"ok":false}
{"schema":$schema,"id":4,"options":{"method":"exact"}}
JSONL
expect_lint "$WORK/shapes.jsonl" "4 line(s) checked, 4 malformed"
echo "lint_jsonl: profile payloads, request grids and line shapes are checked"
