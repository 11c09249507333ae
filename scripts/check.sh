#!/usr/bin/env bash
# Full local gate, mirroring .github/workflows/ci.yml:
#   1. configure + build the default tree, and compile the benchmark driver
#      (perfbench/, its own CMake project against ../src)
#   2. run the whole test suite (includes the `lint_wholeprogram` ctest:
#      both lint phases under their 5 s latency budget)
#   3. bench smoke run (label bench-smoke)
#   4. one sanitizer tree (default: undefined; override with SANITIZER=),
#      built with the runtime invariant checks (QKBFLY_CHECK_INVARIANTS)
#   5. format check of changed files, when clang-format is installed
#
# Usage: scripts/check.sh [--skip-sanitizer]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
SANITIZER="${SANITIZER:-undefined}"
SKIP_SANITIZER=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitizer) SKIP_SANITIZER=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "==> configure + build (build/)"
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"

echo "==> benchmark driver compile (perfbench/)"
# Compile only: perfbench links the engine and service APIs, and nothing
# else builds it. Running it is perfbench/run.py's job.
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-perfbench -j"$JOBS" --target qkbfly_perfbench

echo "==> ctest (full suite, includes lint)"
(cd build && ctest --output-on-failure -j"$JOBS")

echo "==> bench smoke"
# bench_smoke_hotpath also diffs the densify p50 against the committed
# BENCH_hotpath.json `hotpath/densify` record (report-only here; full
# `hotpath --baseline BENCH_hotpath.json` runs hard-fail when the p50
# regresses more than 10%).
# bench_smoke_parser enforces the adaptive-parser dial extremes (threshold
# 0 == pure MST, inf == pure linear, byte-identical KBs) on every run; the
# wall-time/F1 frontier gates are hard only on full `parser_frontier` runs.
(cd build && ctest --output-on-failure -L bench-smoke)

echo "==> metrics exporter schema check"
# qkbfly_serve validates its JSON export against the registry schema before
# writing it and exits non-zero on a violation.
(cd build && ./examples/qkbfly_serve --smoke \
    --metrics-out examples/check_metrics.json \
    --trace-out examples/check_traces.json >/dev/null)

echo "==> fact store snapshot round-trip"
# Two replays sharing one --store-path: run 1 saves the accumulated store,
# run 2 loads it and serves the repeated questions from persisted QA pairs.
# Either run exits non-zero on a load/save failure or schema violation.
(cd build \
    && rm -f examples/check_store.jsonl \
    && ./examples/qkbfly_serve --smoke \
        --store-path examples/check_store.jsonl >/dev/null \
    && ./examples/qkbfly_serve --smoke \
        --store-path examples/check_store.jsonl >/dev/null)

if [[ "$SKIP_SANITIZER" -eq 0 ]]; then
  echo "==> sanitizer tree (QKBFLY_SANITIZE=$SANITIZER, invariant checks on)"
  cmake -B "build-$SANITIZER" -S . -DQKBFLY_SANITIZE="$SANITIZER" \
    -DQKBFLY_CHECK_INVARIANTS=ON >/dev/null
  cmake --build "build-$SANITIZER" -j"$JOBS"
  case "$SANITIZER" in
    thread)  (cd "build-$SANITIZER" && ctest --output-on-failure -L tsan) ;;
    address) (cd "build-$SANITIZER" && ctest --output-on-failure -L asan) ;;
    *)       (cd "build-$SANITIZER" && ctest --output-on-failure -j"$JOBS") ;;
  esac
fi

# Format check of files this branch touches relative to the merge base;
# advisory when clang-format is not installed.
if command -v clang-format >/dev/null 2>&1; then
  echo "==> clang-format check (changed files)"
  base="$(git merge-base HEAD origin/main 2>/dev/null || git rev-parse 'HEAD~1' 2>/dev/null || true)"
  if [[ -n "$base" ]]; then
    changed="$(git diff --name-only "$base" -- '*.h' '*.cc' | grep -v '^third_party/' || true)"
    fail=0
    for f in $changed; do
      [[ -f "$f" ]] || continue
      if ! clang-format --dry-run --Werror "$f" >/dev/null 2>&1; then
        echo "needs formatting: $f"
        fail=1
      fi
    done
    [[ "$fail" -eq 0 ]] || { echo "run: clang-format -i <files>"; exit 1; }
  fi
else
  echo "==> clang-format not installed; skipping format check"
fi

echo "==> all checks passed"
