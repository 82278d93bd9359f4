#!/usr/bin/env bash
# Regenerate every paper figure's CSV and, when gnuplot is available,
# render PNG plots next to them.
#
#   scripts/plot_figures.sh [build-dir] [out-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-figures}"
mkdir -p "$OUT_DIR"

# Figs. 3-9 come from one binary (both comparisons run once), Fig. 10
# from its own. Each "# Fig N(x): ..." block becomes figNx.csv.
for bench in bench_paper_figures bench_fig10_failure_recovery; do
  echo ">> $bench"
  RFH_BENCH_OUT_DIR="$OUT_DIR" "$BUILD_DIR/bench/$bench" > "$OUT_DIR/$bench.txt"
  awk -v out="$OUT_DIR" '
    /^# tail-mean/ { next }
    /^# Fig / { if (f) close(f); panel = $3; gsub(/[^0-9a-z]/, "", panel)
                f = out "/fig" panel ".csv"; next }
    /^# /    { if (f) close(f); f = ""; next }
    /^epoch/ { if (f) print > f; next }
    /,/      { if (f) print > f }
  ' "$OUT_DIR/$bench.txt"
done

if ! command -v gnuplot >/dev/null 2>&1; then
  echo "gnuplot not found: CSVs written to $OUT_DIR/, skipping PNG render"
  exit 0
fi

for csv in "$OUT_DIR"/fig*.csv; do
  png="${csv%.csv}.png"
  columns=$(head -1 "$csv" | awk -F, '{ print NF }')
  gnuplot <<EOF
set datafile separator ','
set terminal pngcairo size 800,500
set output '$png'
set key outside
set xlabel 'epoch'
plot for [i=2:$columns] '$csv' using 1:i with lines title columnheader(i)
EOF
  echo "rendered $png"
done
