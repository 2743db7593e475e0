#!/usr/bin/env bash
# Regenerate every paper table/figure at FULL paper scale (1000 random
# fields per density cell, §4.1). The whole script took 2 min 39 s of wall
# time (9 min 4 s of CPU) on a 4-vCPU KVM guest (nproc = 4) with the
# default RelWithDebInfo build; the figure benches spread their trials over
# every core by default. The bench defaults (50-100 trials) reproduce the
# same shapes in seconds and are what CI runs.
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD=${BUILD:-build}
OUT=${OUT:-paper_scale_results}
TRIALS=${TRIALS:-1000}
mkdir -p "$OUT"

run() {
  local bench=$1; shift
  echo "=== $bench (trials=$TRIALS) ==="
  "$BUILD/bench/$bench" --trials "$TRIALS" --csv "$OUT/$bench.csv" \
      --gnuplot "$OUT/$bench" "$@" | tee "$OUT/$bench.txt"
}

run bench_fig4_mean_error_ideal
run bench_fig5_improvement_ideal
run bench_fig6_mean_error_noise
run bench_fig7_random_noise
run bench_fig8_max_noise
run bench_fig9_grid_noise

# Parameter-free / fixed-cost benches at their defaults.
for b in bench_table1_params bench_fig1_granularity \
         bench_bound_overlap_ratio bench_des_selfinterference; do
  echo "=== $b ==="
  "$BUILD/bench/$b" | tee "$OUT/$b.txt"
done

echo "Results in $OUT/. Plot with: for f in $OUT/*.gp; do gnuplot \$f; done"
