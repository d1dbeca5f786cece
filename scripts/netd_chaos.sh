#!/usr/bin/env bash
# netd chaos: fault injection on real TCP links, end to end on localhost.
#
# Four proofs, mirroring tests/netd_cluster.rs at CI scale:
#   1. every canonical ChaosSpec::MATRIX schedule (drop, dup, partition,
#      crash) decides on a 7-process f=1 cluster whose sockets are
#      actively sabotaged by the chaos layer;
#   2. the per-link fault trace is seed-reproducible: the same schedule
#      under the same seed in two fresh directories emits byte-identical
#      results/netd_chaos_42.json artifacts;
#   3. the divergent-state kill -9 converges: per-process pending
#      streams, survivor progress proven while the victim is down, one
#      digest at the full prefix after FileWal replay + t+1 catch-up;
#   4. the campaign cell records wall-clock fast-decision rates next to
#      the simnet rates for the same cells.
# The harness asserts agreement, convergence and restart counts itself
# and exits non-zero otherwise; this script checks the artifacts.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q --bin dex-netd
NETD="$PWD/target/release/dex-netd"

rm -f BENCH_netd.json results/netd_chaos_42.json results/campaign_netd_smoke.json

echo "== chaos cells: 4 MATRIX schedules on live sockets (n=7 t=1 f=1)"
for chaos in drop:0.4 dup:0.35 partition:5:120 crash:3:100; do
  "$NETD" --cluster --n 7 --t 1 --f 1 --chaos "$chaos" \
    --phase cells --runs 1 --seed 42 --timeout-secs 120
done

echo "== fault-trace reproducibility: same seed, two dirs, cmp"
trace_a="$(mktemp -d)"
trace_b="$(mktemp -d)"
trap 'rm -rf "$trace_a" "$trace_b"' EXIT
for dir in "$trace_a" "$trace_b"; do
  (cd "$dir" && "$NETD" --cluster --n 7 --t 1 --f 1 --chaos drop:0.4 \
    --phase cells --runs 2 --seed 42 --timeout-secs 120)
done
cmp "$trace_a/results/netd_chaos_42.json" "$trace_b/results/netd_chaos_42.json"
# Keep one copy where the CI artifact globs collect it.
mkdir -p results
cp "$trace_a/results/netd_chaos_42.json" results/netd_chaos_42.json

echo "== divergent kill -9: survivor progress, then WAL replay + catch-up"
"$NETD" --cluster --n 7 --t 1 --phase kill9 --kill 2:divergent \
  --slots 8 --pipeline 4 --seed 99 --timeout-secs 120
grep -q '"divergent":true' BENCH_netd.json
grep -q '"converged":true' BENCH_netd.json
grep -q '"survivor_floor":' BENCH_netd.json

echo "== campaign cell: wall-clock fast-decision rates vs simnet"
"$NETD" --campaign smoke:0 --runs 1 --timeout-secs 120
grep -q '"netd":{"fast":' results/campaign_netd_smoke.json
grep -q '"simnet":{"fast":' results/campaign_netd_smoke.json

for artifact in results/netd_chaos_42.json results/campaign_netd_smoke.json; do
  [ -f "$artifact" ] || { echo "missing artifact $artifact" >&2; exit 1; }
done

echo "netd chaos OK: MATRIX decided, trace reproducible, divergent kill converged"
