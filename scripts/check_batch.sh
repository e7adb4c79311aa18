#!/usr/bin/env bash
# End-to-end guard for the batch service + persistent result cache:
# emit the Fig. 2 sweep grid as a JSONL request file, run it cold and
# then warm against a fresh cache directory, and assert
#   * both stdouts are pure JSONL (every line parses via --lint-jsonl),
#   * the warm run answers >= 95% of requests from the cache,
#   * the warm run's internal wall clock is >= 5x faster than the cold
#     one (internal wall_ms, so process startup does not blur the ratio),
#   * cold and warm responses are byte-identical apart from the cache
#     outcome tag (bit-exact result round-trip through the cache),
#   * an uncached run over the scalar + profile set answers the same
#     bytes on 1 thread and on 4 (a literal cmp: responses carry no
#     wall-clock field),
#   * the committed wire golden (tests/data/wire_requests.jsonl ->
#     wire_responses.jsonl) is answered byte for byte with no cache and
#     again from a fresh cache's hits, and the stored entry files under
#     tests/data/wire_cache/ match byte for byte (file name = key hash),
#   * one digit flipped inside the stored entry's payload (it still
#     parses and decodes) is caught by the entry's digest: a rerun
#     answers exactly that line "cache":"corrupt" with the
#     corrupt-cache warning, and every other line is the same hit,
#   * both golden files pass --lint-jsonl (the requests but for their
#     one malformed line), profile payloads decoded, not just parsed,
#   * `--ccdf` takes at most io::kMaxProfileLevels (1024) points: 1025
#     is a usage error (rc 2), like a batch grid that long is a parse
#     error.
# Registered as the `batch_e2e` ctest.
#
# usage: check_batch.sh [deltanc_cli]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CLI="${1:-$ROOT/build/tools/deltanc_cli}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# The Fig. 2 operating grid (hops 5, eps 1e-6, Uc x scheduler).
"$CLI" --hops 5 --epsilon 1e-6 \
  --sweep uc=0.1:0.8:8 --sweep scheduler=fifo,bmux,edf \
  --emit-batch > "$WORK/requests.jsonl" 2>/dev/null
requests=$(wc -l < "$WORK/requests.jsonl")
if [ "$requests" -lt 24 ]; then
  echo "FAIL: emit-batch produced $requests requests (want 24)"; exit 1
fi
"$CLI" --lint-jsonl "$WORK/requests.jsonl" 2>/dev/null

# The profile-grid limit: 1024 --ccdf points emit, 1025 are refused.
"$CLI" --hops 5 --ccdf 1e-9:1e-3:1024 --emit-batch > /dev/null 2>&1
rc=0
"$CLI" --hops 5 --ccdf 1e-9:1e-3:1025 --emit-batch > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "FAIL: --ccdf with 1025 points exited $rc (want 2)"; exit 1
fi

cold_err="$WORK/cold.err"
warm_err="$WORK/warm.err"
"$CLI" --batch "$WORK/requests.jsonl" --cache-dir "$WORK/cache" \
  > "$WORK/cold.jsonl" 2> "$cold_err"
"$CLI" --batch "$WORK/requests.jsonl" --cache-dir "$WORK/cache" \
  > "$WORK/warm.jsonl" 2> "$warm_err"

# stdout purity: every response line must survive the strict linter.
"$CLI" --lint-jsonl "$WORK/cold.jsonl" 2>/dev/null
"$CLI" --lint-jsonl "$WORK/warm.jsonl" 2>/dev/null

summary_field() {  # summary_field <file> <key>
  grep '^batch:' "$1" | tr ' ' '\n' | sed -n "s/^$2=//p"
}

cold_ms=$(summary_field "$cold_err" wall_ms)
warm_ms=$(summary_field "$warm_err" wall_ms)
warm_cached=$(summary_field "$warm_err" cached)

awk -v req="$requests" -v cached="$warm_cached" \
    -v cold="$cold_ms" -v warm="$warm_ms" 'BEGIN {
  if (cached < 0.95 * req) {
    printf "FAIL: warm run cached %d/%d (< 95%%)\n", cached, req; exit 1
  }
  if (warm * 5 > cold) {
    printf "FAIL: warm run %.3f ms vs cold %.3f ms (< 5x speedup)\n",
           warm, cold; exit 1
  }
  printf "batch_e2e: %d/%d cached, %.1fx speedup (%.1f ms -> %.2f ms)\n",
         cached, req, cold / warm, cold, warm
}'

# Results served from the cache must be bit-identical to the solved
# ones: strip the per-response "cache" tag (miss vs hit -- how the
# answer was obtained, not the answer), then byte-compare.
strip_cache_tag() {
  sed -e 's/"cache":"[a-z]*",//' "$1"
}
strip_cache_tag "$WORK/cold.jsonl" > "$WORK/cold.stripped"
strip_cache_tag "$WORK/warm.jsonl" > "$WORK/warm.stripped"
if ! cmp -s "$WORK/cold.stripped" "$WORK/warm.stripped"; then
  echo "FAIL: warm responses differ from cold ones beyond the cache tag"
  exit 1
fi
echo "batch_e2e: cold/warm responses bit-identical"

# 1-vs-N determinism: the same grid's 3-level profile requests join the
# scalar ones, and an uncached run must answer byte-identical output on
# 1 thread and on 4 -- no normalization at all.
"$CLI" --hops 5 --epsilon 1e-6 \
  --sweep uc=0.1:0.8:8 --sweep scheduler=fifo,bmux,edf \
  --ccdf 1e-6:1e-3:3 --emit-batch > "$WORK/profiles.jsonl" 2>/dev/null
cat "$WORK/requests.jsonl" "$WORK/profiles.jsonl" > "$WORK/mixed.jsonl"
"$CLI" --batch "$WORK/mixed.jsonl" --threads 1 \
  > "$WORK/threads1.jsonl" 2>/dev/null
"$CLI" --batch "$WORK/mixed.jsonl" --threads 4 \
  > "$WORK/threads4.jsonl" 2>/dev/null
profiles=$(grep -c '"profile":' "$WORK/threads1.jsonl" || true)
if [ "$profiles" -ne 24 ]; then
  echo "FAIL: uncached mixed batch answered $profiles profiles (want 24)"
  exit 1
fi
if ! cmp -s "$WORK/threads1.jsonl" "$WORK/threads4.jsonl"; then
  echo "FAIL: --threads 1 and --threads 4 responses differ:"
  diff "$WORK/threads1.jsonl" "$WORK/threads4.jsonl" | head -5
  exit 1
fi
echo "batch_e2e: $(wc -l < "$WORK/mixed.jsonl") uncached responses identical on 1 and 4 threads"

# Wire golden: the committed answers pin the batch/serve bytes across
# commits (number digits, string escapes, field order, cache keys).  The
# request set mixes scalar and 16-level profile requests with a malformed
# line and an unsolvable hops:0 line, so the run exits 1 by design.
GOLDEN="$ROOT/tests/data"
run_golden() {  # run_golden <out> [batch flags...]
  local out="$1" rc=0
  shift
  "$CLI" --batch "$GOLDEN/wire_requests.jsonl" "$@" > "$out" 2>/dev/null \
    || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL: golden batch exited $rc (want 1: one parse error, one failure)"
    exit 1
  fi
}
run_golden "$WORK/golden_nocache.jsonl"
if ! cmp "$WORK/golden_nocache.jsonl" "$GOLDEN/wire_responses.jsonl"; then
  echo "FAIL: uncached answers differ from tests/data/wire_responses.jsonl"
  exit 1
fi
run_golden "$WORK/golden_fill.jsonl" --cache-dir "$WORK/golden_cache"
run_golden "$WORK/golden_hit.jsonl" --cache-dir "$WORK/golden_cache"
hits=$(grep -c '"cache":"hit"' "$WORK/golden_hit.jsonl" || true)
if [ "$hits" -ne 10 ]; then
  echo "FAIL: golden hit pass answered $hits lines from the cache (want 10)"
  exit 1
fi
strip_cache_tag "$WORK/golden_hit.jsonl" > "$WORK/golden_hit.stripped"
if ! cmp "$WORK/golden_hit.stripped" "$GOLDEN/wire_responses.jsonl"; then
  echo "FAIL: cache-hit answers differ from tests/data/wire_responses.jsonl"
  exit 1
fi
for entry in "$GOLDEN"/wire_cache/*.json; do
  if ! cmp "$WORK/golden_cache/$(basename "$entry")" "$entry"; then
    echo "FAIL: stored cache entry differs from tests/data/wire_cache/$(basename "$entry")"
    exit 1
  fi
done
echo "batch_e2e: wire golden identical uncached, from cache hits, and in the stored entry"

# Digest gate: flip the first nonzero digit after "delay_ms" in the
# stored entry's payload.  The entry still parses and decodes, so only
# its digest can tell; the line it answers must be the only one that
# changes, and it must be re-solved with the recovery warning.
cp -r "$WORK/golden_cache" "$WORK/doctored_cache"
for entry in "$GOLDEN"/wire_cache/*.json; do
  doctored="$WORK/doctored_cache/$(basename "$entry")"
  awk '{
    at = index($0, "\"profile\":");
    if (at == 0) at = index($0, "\"result\":");
    d = at + index(substr($0, at), "\"delay_ms\":") + 10;
    while (substr($0, d, 1) !~ /[1-9]/) d++;
    c = substr($0, d, 1);
    printf "%s%s%s\n", substr($0, 1, d - 1), (c == "9" ? "1" : c + 1),
           substr($0, d + 1);
  }' "$entry" > "$doctored"
  if cmp -s "$doctored" "$entry"; then
    echo "FAIL: the digest gate did not change $(basename "$entry")"; exit 1
  fi
done
run_golden "$WORK/golden_doctored.jsonl" --cache-dir "$WORK/doctored_cache"
changed=$(diff "$WORK/golden_hit.jsonl" "$WORK/golden_doctored.jsonl" |
            grep -c '^>' || true)
corrupt=$(grep '"cache":"corrupt"' "$WORK/golden_doctored.jsonl" |
            grep -c '"kind":"corrupt-cache"' || true)
if [ "$changed" -ne 1 ] || [ "$corrupt" -ne 1 ] ||
   [ "$(grep -c '"cache":"hit"' "$WORK/golden_doctored.jsonl")" -ne 9 ]; then
  echo "FAIL: a flipped payload digit changed $changed line(s), $corrupt answered corrupt (want 1 and 1, 9 hits)"
  exit 1
fi
echo "batch_e2e: a flipped payload digit is caught by its digest and re-solved; the other lines stay hits"

# The golden itself decodes: every response payload, the two 16-level
# profiles included, and every request but the one malformed line.
rc=0
"$CLI" --lint-jsonl "$GOLDEN/wire_requests.jsonl" 2> "$WORK/lint_req.err" || rc=$?
if [ "$rc" -ne 1 ] ||
   ! grep -qxF "lint: 12 line(s) checked, 1 malformed" "$WORK/lint_req.err"; then
  echo "FAIL: wire_requests.jsonl lint exited $rc (want 1, one malformed line):"
  cat "$WORK/lint_req.err"
  exit 1
fi
"$CLI" --lint-jsonl "$GOLDEN/wire_responses.jsonl" 2>/dev/null
echo "batch_e2e: wire golden requests and responses lint as expected"
