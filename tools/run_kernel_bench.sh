#!/usr/bin/env bash
# Run the scalar-vs-SIMD kernel wall-clock harness locally. Produces
# BENCH_kernel_wallclock.json at the repo root (median-of-N steady-clock
# timings of the scanMatch score loop and the trajectory-rollout scoring loop)
# and prints the speedup table. The harness exits non-zero when the scalar
# and SIMD paths disagree. The artifact's schema (bench name, SIMD level,
# runs, both kernels with all six fields, positive timings) and its speedups
# against bench/baselines/ are checked by check_kernel_wallclock in
# tools/check_bench_regression, which the bench-regression CI job runs on a
# --smoke artifact.
#
# Usage: tools/run_kernel_bench.sh [build-dir] [--smoke]
#   --smoke: reduced iteration counts, as the bench-regression job runs it.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="$REPO_ROOT/build"
SMOKE=""
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE="--smoke" ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

if [[ ! -d "$BUILD_DIR" ]]; then
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
fi
cmake --build "$BUILD_DIR" --target bench_micro_kernels -j

(cd "$REPO_ROOT" && "$BUILD_DIR/bench/bench_micro_kernels" --wallclock-json $SMOKE)
