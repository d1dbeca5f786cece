#!/usr/bin/env bash
# netd smoke: the process-level runtime, end to end on localhost TCP.
#
# A 5-process, t = 0 cluster must decide a canonical fault-free MATRIX
# cell with agreement across all child processes (results/netd_31.json:
# valid JSON, via check_json from scripts/ci.sh, with its consensus rows),
# and --stats must print the wire breakdown line. The same cluster must
# refuse a kill -9 (--slots) before any child spawns: the victim is a
# fault, and t = 0 leaves room for none.
#
# Then a 7-process, t = 1 cluster survives a literal kill -9 + respawn of
# one replica, twice: at window 4 (results/netd_33.json) and at window 1,
# the default (results/netd_32.json), where the survivors retire the
# slots the victim misses while it is down, so the respawned victim can
# only fetch them by catch-up. Each run must print its survivor-progress
# proof before the respawn. The harness asserts agreement, convergence
# and the restart count itself and exits non-zero otherwise.
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
  --stats --timeout-secs 120 | tee "$out"
grep -q '^wire classes: ' "$out"
check_json results/netd_31.json
grep -q '"cell":"consensus"' results/netd_31.json

if ./target/release/dex-netd --cluster --n 5 --t 0 --slots 6 2> "$out"; then
  echo "a kill -9 at t = 0 must be refused" >&2
  exit 1
fi
grep -q 'needs t ≥ 1' "$out"

for run in "4 8 1 33" "1 16 4 32"; do
  read -r window slots kill seed <<< "$run"
  rm -f "results/netd_$seed.json"
  ./target/release/dex-netd --cluster --n 7 --t 1 --kill "$kill" --slots "$slots" \
    --pipeline "$window" --seed "$seed" --timeout-secs 120 | tee "$out"
  grep -A1 'survivors progressed to ≥' "$out" | grep -q 'respawned as'
  check_json "results/netd_$seed.json"
  grep -q "\"window\":$window," "results/netd_$seed.json"
  grep -q '"converged":true' "results/netd_$seed.json"
  grep -q '"restarts":1' "results/netd_$seed.json"
done

rm -f results/netd_7.json
./target/release/dex-netd --cluster \
  --n 31 --t 5 --runs 2 --seed 7 | tee "$out"
check_json results/netd_7.json
[ "$(grep -c '^cell .* run [0-9]*: decided ' "$out")" -eq 2 ]
if grep '^cell ' "$out" | grep -v ': decided [0-9]* (31 of 31 '; then
  echo "an n = 31 cell did not report 31 of 31 decided" >&2
  exit 1
fi

echo "netd smoke OK: cells decided, t = 0 kill refused, kill -9 + respawn converged at windows 4 and 1, n = 31 decided"
