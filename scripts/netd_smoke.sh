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
# printed the wire breakdown line. A second kill -9 runs at window 1, the
# default: the survivors retire the slots the victim misses while it is
# down, so the respawned victim can only fetch them by catch-up
# (results/netd_32.json).
#
# Then the paper's n = 31, t = 5 point (n > 6t) on real sockets: 31
# processes, each with one mesh I/O thread, must all decide each cell
# (results/netd_7.json).
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

rm -f results/netd_32.json
./target/release/dex-netd --cluster --n 7 --t 1 --phase kill9 --kill 4:divergent \
  --slots 16 --pipeline 1 --seed 32 --timeout-secs 120
check_json results/netd_32.json
grep -q '"window":1,' results/netd_32.json
grep -q '"converged":true' results/netd_32.json
grep -q '"restarts":1' results/netd_32.json

rm -f results/netd_7.json
./target/release/dex-netd --cluster \
  --n 31 --t 5 --phase cells --runs 2 --seed 7 | tee "$out"
check_json results/netd_7.json
[ "$(grep -c '^cell .* run [0-9]*: decided ' "$out")" -eq 2 ]
if grep '^cell ' "$out" | grep -v ': decided [0-9]* (31 of 31 '; then
  echo "an n = 31 cell did not report 31 of 31 decided" >&2
  exit 1
fi

echo "netd smoke OK: cells decided, kill -9 + respawn converged at windows 4 and 1, n = 31 decided"
