#!/usr/bin/env bash
# CI equivalence checks: run the release `scenario` binary in two
# configurations and require byte-identical output. The simulator runs
# one epoch engine at every thread count, so `--threads 1 vs 2` is one
# shard against two.
#
#   scripts/equivalence.sh report    every shipped scenario plus smoke_crash on each
#                                    baseline system, sim report JSON, --threads 1 vs 2
#   scripts/equivalence.sh trace     smoke_crash + kv_churn flight-recorder trace, --threads 1 vs 2
#   scripts/equivalence.sh metrics   every shipped scenario, metrics JSONL,   --threads 1 vs 2
#   scripts/equivalence.sh shards    kv_churn + kv_overload real-driver verdicts, --shards 1 vs 2
set -euo pipefail

cargo build --release -p rapid-scenario --bin scenario
scenario=./target/release/scenario
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# must_match WHAT A B: files or directories A and B must be
# byte-identical; otherwise print the diff and fail.
must_match() {
  if ! diff -r "$2" "$3" > "$tmp/diff"; then
    echo "::error::$1"
    cat "$tmp/diff"
    exit 1
  fi
}

# threads_1_vs_2 SCENARIO ARGS...: runs SCENARIO on the simulator at
# --threads 1 and at --threads 2, each into a fresh directory (stdout
# goes to DIR/stdout, "OUT" in ARGS becomes DIR), and requires the two
# directories to match.
threads_1_vs_2() {
  local f=$1 t dir
  shift
  for t in 1 2; do
    dir="$tmp/t$t"
    rm -rf "$dir"
    mkdir "$dir"
    "$scenario" "$f" --driver sim --threads "$t" "${@//OUT/$dir}" > "$dir/stdout"
  done
  must_match "$f: output diverges between --threads 1 and --threads 2" "$tmp/t1" "$tmp/t2"
}

case "${1:-}" in
  report)
    for f in scenarios/*.toml; do
      threads_1_vs_2 "$f" --json
      echo "$f: two-shard report byte-identical"
    done
    for sys in memberlist akka zookeeper; do
      threads_1_vs_2 scenarios/smoke_crash.toml --json --system "$sys"
      echo "scenarios/smoke_crash.toml --system $sys: two-shard report byte-identical"
    done
    ;;
  trace)
    # smoke_crash is membership only; kv_churn merges two planes per
    # member and hosts a client actor.
    for f in scenarios/smoke_crash.toml scenarios/kv_churn.toml; do
      threads_1_vs_2 "$f" --json --trace OUT/trace.jsonl
      test -s "$tmp/t1/trace.jsonl"
      echo "$f: trace JSONL byte-identical ($(wc -l < "$tmp/t1/trace.jsonl") events)"
    done
    ;;
  metrics)
    for f in scenarios/*.toml; do
      threads_1_vs_2 "$f" --json --metrics OUT/metrics.jsonl
      test -s "$tmp/t1/metrics.jsonl"
      echo "$f: metrics JSONL and sampled report byte-identical ($(wc -l < "$tmp/t1/metrics.jsonl") samples)"
    done
    ;;
  shards)
    # Both counts run the same host loop; only the number of shard
    # threads differs. Compare the timing-free skeleton: the overall
    # result, phase names and expectation verdicts. Wall-clock leaves
    # (durations, traffic bytes) and the acked-ledger counts embedded in
    # expect descriptions legitimately vary run to run on a shared box
    # (kv_overload sheds a timing-dependent share of the burst).
    for f in scenarios/kv_churn.toml scenarios/kv_overload.toml; do
      for w in 1 2; do
        "$scenario" "$f" --driver real --shards "$w" --json | python3 -c '
import json, sys
r = json.load(sys.stdin)
print(r["passed"])
for p in r["phases"]:
    for e in p["expects"]:
        print(p["name"], e["desc"].split("(")[0], e["passed"])
' > "$tmp/shards$w"
      done
      must_match "$f: real-driver verdicts diverge between --shards 1 and --shards 2" \
        "$tmp/shards1" "$tmp/shards2"
      echo "$f: --shards 2 verdicts identical to --shards 1"
    done
    ;;
  *)
    echo "usage: $0 report|trace|metrics|shards" >&2
    exit 2
    ;;
esac
