#!/usr/bin/env bash
# netd smoke: the process-level runtime, end to end on localhost TCP.
#
# A 5-process cluster must (a) decide a canonical fault-free MATRIX cell
# with agreement across all child processes, and (b) survive a literal
# kill -9 + respawn of one replica, converging through FileWal replay and
# t+1 catch-up. The harness asserts agreement, convergence and the
# restart count itself and exits non-zero otherwise; this script checks
# the artifact it leaves behind (results/netd_31.json: valid JSON, via
# check_json from scripts/ci.sh, with the kill9 row) and that --stats
# printed the wire breakdown line.
set -euo pipefail
cd "$(dirname "$0")/.."
declare -F check_json > /dev/null || { echo "run this as scripts/ci.sh <stage>: it defines check_json" >&2; exit 2; }

cargo build --release -q --bin dex-netd

rm -f results/netd_31.json
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

./target/release/dex-netd --cluster \
  --n 5 --t 0 --workload bernoulli:0.8 --runs 2 --seed 31 \
  --slots 8 --pipeline 4 --stats --timeout-secs 120 | tee "$out"
grep -q '^wire classes: ' "$out"

check_json results/netd_31.json
grep -q '"cell":"kill9"' results/netd_31.json
grep -q '"converged":true' results/netd_31.json
grep -q '"restarts":1' results/netd_31.json

echo "netd smoke OK: cells decided, kill -9 + respawn converged"
