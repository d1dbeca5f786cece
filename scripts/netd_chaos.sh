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
#   4. a campaign point runs on netd from the flags dex-campaign --replay
#      prints, and its cell row records its simnet twin's decision paths.
# The harness asserts agreement, convergence and restart counts itself
# and exits non-zero otherwise; this script checks the artifacts, each
# of which must parse as JSON (check_json, exported by scripts/ci.sh).
set -euo pipefail
cd "$(dirname "$0")/.."
declare -F check_json > /dev/null || { echo "run this as scripts/ci.sh <stage>: it defines check_json" >&2; exit 2; }

cargo build --release -q --bin dex-netd
NETD="$PWD/target/release/dex-netd"

rm -f results/netd_2.json results/netd_42.json results/netd_99.json \
  results/netd_chaos_42.json

echo "== chaos cells: 4 MATRIX schedules on live sockets (n=7 t=1 f=1)"
for chaos in drop:0.4 dup:0.35 partition:5:120 crash:3:100; do
  "$NETD" --cluster --n 7 --t 1 --f 1 --chaos "$chaos" \
    --phase cells --runs 1 --seed 42 --timeout-secs 120
  check_json results/netd_42.json results/netd_chaos_42.json
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
check_json "$trace_a"/results/*.json "$trace_b"/results/*.json
# Keep one copy where the CI artifact globs collect it.
mkdir -p results
cp "$trace_a/results/netd_chaos_42.json" results/netd_chaos_42.json

echo "== divergent kill -9: survivor progress, then WAL replay + catch-up"
"$NETD" --cluster --n 7 --t 1 --phase kill9 --kill 2:divergent \
  --slots 8 --pipeline 4 --seed 99 --timeout-secs 120
check_json results/netd_99.json
grep -q '"divergent":true' results/netd_99.json
grep -q '"converged":true' results/netd_99.json
grep -q '"survivor_floor":' results/netd_99.json

echo "== campaign point on netd: the replay flags, next to the simnet twin"
cargo build --release -q --bin dex-campaign
replay="$(./target/release/dex-campaign --config smoke --replay 0 0)"
replay="${replay#dex-sim }"
# shellcheck disable=SC2086 # the replay line is a flag list
"$NETD" --cluster --phase cells --timeout-secs 120 ${replay/--runtime simnet/--runtime netd}
check_json results/netd_2.json
grep -q '"simnet_one_step":' results/netd_2.json
grep -q '"simnet_two_step":' results/netd_2.json

echo "netd chaos OK: MATRIX decided, trace reproducible, divergent kill converged, campaign point twinned"
