#!/usr/bin/env bash
# netd smoke: the process-level runtime, end to end on localhost TCP.
#
# A 5-process cluster must (a) decide a canonical fault-free MATRIX cell
# with agreement across all child processes, and (b) survive a literal
# kill -9 + respawn of one replica, converging through FileWal replay and
# t+1 catch-up. The harness asserts agreement, convergence and the
# restart count itself and exits non-zero otherwise; this script checks
# the artifacts it leaves behind (BENCH_netd.json, results/netd_31.json)
# and that --stats printed the wire breakdown line.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q --bin dex-netd

rm -f BENCH_netd.json results/netd_31.json
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

./target/release/dex-netd --cluster \
  --n 5 --t 0 --workload bernoulli:0.8 --runs 2 --seed 31 \
  --slots 8 --pipeline 4 --stats --timeout-secs 120 | tee "$out"
grep -q '^wire classes: ' "$out"

for artifact in BENCH_netd.json results/netd_31.json; do
  [ -f "$artifact" ] || { echo "missing artifact $artifact" >&2; exit 1; }
done
grep -q '"cell":"kill9"' BENCH_netd.json
grep -q '"converged":true' BENCH_netd.json
grep -q '"restarts":1' BENCH_netd.json

echo "netd smoke OK: cells decided, kill -9 + respawn converged"
