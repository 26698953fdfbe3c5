#!/usr/bin/env bash
# A/B two builds of the benchmark binary on one workload, as alternating
# pairs: for each seed both sides run once, and which side runs first
# flips from one seed to the next, so slow drift of the machine's load
# falls on both sides alike.
#
#   scripts/ab.sh [--seconds S] PARENT_BIN CHANGE_BIN WORKLOAD SEED...
#
# PARENT_BIN and CHANGE_BIN are built benchmark binaries (e.g. copies of
# benchmark/target/release/benchmark from two checkouts). Each run is
# `BIN --workload WORKLOAD --seed SEED --seconds S --trace 0` (S defaults
# to 12, the benchmark's own run length). Prints one line per pair with
# the five end-to-end metrics of both sides and the change's ratio to the
# parent, then the median of each metric on each side. Exits non-zero if
# a run exits non-zero or reports "correct": false.
set -euo pipefail

seconds=12
if [[ "${1:-}" == "--seconds" ]]; then
  seconds=$2
  shift 2
fi
if (($# < 4)); then
  sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
parent=$1 change=$2 workload=$3
shift 3

metrics=(setup_s ops_per_s op_p50_us op_tail_us peak_rss_mb)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run SIDE BIN SEED: one run; its result line goes to $tmp/SIDE.SEED.
run() {
  local out="$tmp/$1.$3"
  if ! "$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 > "$out.log"; then
    echo "$1 run failed (seed $3):" >&2
    tail -n 5 "$out.log" >&2
    exit 1
  fi
  tail -n 1 "$out.log" > "$out"
  if ! jq -e '.correct == true' "$out" > /dev/null; then
    echo "$1 run incorrect (seed $3): $(cat "$out")" >&2
    exit 1
  fi
}

# value SIDE SEED METRIC
value() { jq -r ".metrics.$3.value" "$tmp/$1.$2"; }

# median: of the numbers on stdin, one a line.
median() {
  sort -g | awk '{ v[NR] = $1 } END { if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

printf '%-6s %-7s' seed first
for m in "${metrics[@]}"; do printf ' %28s' "$m (parent change ratio)"; done
echo
flip=0
for seed in "$@"; do
  if ((flip)); then
    run change "$change" "$seed"
    run parent "$parent" "$seed"
    first=change
  else
    run parent "$parent" "$seed"
    run change "$change" "$seed"
    first=parent
  fi
  flip=$((1 - flip))
  printf '%-6s %-7s' "$seed" "$first"
  for m in "${metrics[@]}"; do
    p=$(value parent "$seed" "$m")
    c=$(value change "$seed" "$m")
    printf ' %28s' "$(awk -v p="$p" -v c="$c" 'BEGIN { printf "%.4g %.4g %.3f", p, c, (p == 0 ? 0 : c / p) }')"
  done
  echo
done
echo "medians over $# pairs ($workload, --seconds $seconds):"
for m in "${metrics[@]}"; do
  p=$(for s in "$@"; do value parent "$s" "$m"; done | median)
  c=$(for s in "$@"; do value change "$s" "$m"; done | median)
  awk -v m="$m" -v p="$p" -v c="$c" 'BEGIN { printf "  %-12s parent %-12.6g change %-12.6g ratio %.3f\n", m, p, c, (p == 0 ? 0 : c / p) }'
done
