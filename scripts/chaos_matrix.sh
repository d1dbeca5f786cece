#!/usr/bin/env bash
# Chaos acceptance matrix: every canonical chaos schedule (drop-heavy,
# dup-heavy, partition+heal, crash+recover) composed with a full-strength
# Byzantine adversary (f = t), across 8 seeds. Each invocation runs the
# batch, re-executes run 0 with event recording, and replays it through the
# structured invariant checker — dex-sim exits nonzero on any safety or
# termination-after-heal violation, which fails this script.
#
# A final cmp-gated pass pins byte-determinism of a chaos trace artifact:
# the same (spec, seed) must render the identical file twice, and that file
# must equal the committed results/logs/trace_chaos_partition_31.json (its
# holds reach past the simulator's near ring into the far event map).
# Every trace must parse as JSON (check_json, exported by scripts/ci.sh).
set -euo pipefail
cd "$(dirname "$0")/.."
declare -F check_json > /dev/null || { echo "run this as scripts/ci.sh <stage>: it defines check_json" >&2; exit 2; }

SCHEDULES=(drop:0.4 dup:0.35 partition:5:120 crash:3:100)
SEEDS=(0 1 2 3 4 5 6 7)

BASE=(--n 7 --t 1 --f 1 --algo dex-freq --workload bernoulli:0.8
      --adversary equivocate --runs 3 --trace)

for chaos in "${SCHEDULES[@]}"; do
  for seed in "${SEEDS[@]}"; do
    cargo run --release -q --bin dex-sim -- \
      "${BASE[@]}" --chaos "$chaos" --seed "$seed" > /dev/null
  done
  check_json results/trace_chaos_*.json
  echo "chaos $chaos: ${#SEEDS[@]} seeds clean"
done

echo "chaos determinism: partition:5:120 seed 31 twice, byte-identical artifact"
rm -f results/trace_chaos_partition_31.json results/trace_chaos_partition_31.first.json
cargo run --release -q --bin dex-sim -- \
  "${BASE[@]}" --chaos partition:5:120 --seed 31 > /dev/null
mv results/trace_chaos_partition_31.json results/trace_chaos_partition_31.first.json
cargo run --release -q --bin dex-sim -- \
  "${BASE[@]}" --chaos partition:5:120 --seed 31 > /dev/null
cmp results/trace_chaos_partition_31.json results/trace_chaos_partition_31.first.json
cmp results/trace_chaos_partition_31.json results/logs/trace_chaos_partition_31.json
check_json results/trace_chaos_partition_31.json

rm -f results/trace_chaos_*.json

echo "chaos matrix OK"
