#!/usr/bin/env bash
# Builds every ```cpp block of docs/API.md, docs/SCHEDULERS.md, and
# docs/SERVING.md as its own program (compiled against src/, linked
# against the built deltanc libraries) and runs it in a scratch
# directory, so the documented API surface cannot drift from the
# headers and every `return 1` check a snippet makes is executed.  A
# snippet fails on a compile or link error or a non-zero exit.
# Registered as the `api_doc_snippets` ctest, which passes the build's
# compiler, CMAKE_CXX_FLAGS (so sanitizer trees link) and libraries.
#
# usage: check_api_snippets.sh compiler repo_root cxx_flags library...
set -euo pipefail

if [ "$#" -lt 4 ]; then
  echo "usage: $0 compiler repo_root cxx_flags library..." >&2
  exit 2
fi
CXX="$1"
ROOT="$2"
read -r -a CXXFLAGS <<<"$3"
shift 3
LIBS=("$@")
DOCS=("$ROOT/docs/API.md" "$ROOT/docs/SCHEDULERS.md" "$ROOT/docs/SERVING.md")
TMPDIR_SNIPPETS="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_SNIPPETS"' EXIT

total=0
failed=0
for DOC in "${DOCS[@]}"; do
  stem="$(basename "$DOC" .md)"
  # Split the fenced cpp blocks into numbered files.
  awk -v dir="$TMPDIR_SNIPPETS" -v stem="$stem" '
    /^```cpp$/ { in_block = 1; ++n; file = dir "/" stem "_" n ".cpp"; next }
    /^```$/    { in_block = 0; next }
    in_block   { print > file }
  ' "$DOC"

  count=0
  for f in "$TMPDIR_SNIPPETS/${stem}"_*.cpp; do
    [ -e "$f" ] || break
    count=$((count + 1))
    name="$(basename "$f" .cpp)"
    exe="$TMPDIR_SNIPPETS/$name"
    # --start-group: the static libraries reference each other.
    if ! "$CXX" -std=c++20 "${CXXFLAGS[@]}" -Wall -Wextra -Werror \
         -I "$ROOT/src" -I "$ROOT/include" "$f" -o "$exe" \
         -Wl,--start-group "${LIBS[@]}" -Wl,--end-group -pthread; then
      echo "FAIL: $name.cpp does not build (from $DOC)" >&2
      failed=$((failed + 1))
      continue
    fi
    rundir="$TMPDIR_SNIPPETS/run_$name"
    mkdir "$rundir"
    if ! (cd "$rundir" && "$exe" >/dev/null 2>stderr.txt); then
      cat "$rundir/stderr.txt" >&2
      echo "FAIL: $name.cpp exits non-zero (from $DOC)" >&2
      failed=$((failed + 1))
    fi
  done
  if [ "$count" -eq 0 ]; then
    echo "check_api_snippets: no cpp blocks found in $DOC" >&2
    exit 1
  fi
  total=$((total + count))
done

if [ "$failed" -gt 0 ]; then
  echo "check_api_snippets: $failed of $total snippets failed" >&2
  exit 1
fi
echo "check_api_snippets: all $total snippets build and exit 0"
