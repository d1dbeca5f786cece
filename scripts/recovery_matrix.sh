#!/usr/bin/env bash
# Crash-recovery acceptance: the `--chaos crash-restart:<down>:<up>` CLI
# surface, gated end to end.
#
#   `--chaos crash-restart:200:300` parses, runs the batch + checker across
#   seeds, and renders a byte-stable artifact (seed 31 twice, `cmp`-equal).
#   The window sits after decision time: one-shot consensus has no
#   retransmission, so a mid-protocol amnesia crash leaves the victim
#   undecided by design — recovery liveness lives in the replication layer,
#   which tests/recovery_matrix.rs checks (f = t restart clusters
#   re-deriving byte-identical prefixes through snapshot + WAL + catch-up,
#   and sustained-drop termination under the resend layer).
#
# The `test` stage already covers the rest: `cargo test --workspace` runs
# tests/recovery_matrix.rs, and the chaos-free seed-31 trace is rendered
# twice and `cmp`-ed against results/logs/trace_31_dex-freq.json there.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "recovery CLI: crash-restart schedule across seeds"
BASE=(--n 7 --t 1 --f 1 --algo dex-freq --workload bernoulli:0.8
      --adversary equivocate --runs 3 --trace)
for seed in 0 1 2 3; do
  cargo run --release -q --bin dex-sim -- \
    "${BASE[@]}" --chaos crash-restart:200:300 --seed "$seed" > /dev/null
done
echo "recovery CLI: 4 seeds clean"

echo "recovery determinism: crash-restart:200:300 seed 31 twice, byte-identical artifact"
rm -f results/trace_chaos_crash-restart_31.json \
      results/trace_chaos_crash-restart_31.first.json
cargo run --release -q --bin dex-sim -- \
  "${BASE[@]}" --chaos crash-restart:200:300 --seed 31 > /dev/null
mv results/trace_chaos_crash-restart_31.json \
   results/trace_chaos_crash-restart_31.first.json
cargo run --release -q --bin dex-sim -- \
  "${BASE[@]}" --chaos crash-restart:200:300 --seed 31 > /dev/null
cmp results/trace_chaos_crash-restart_31.json \
    results/trace_chaos_crash-restart_31.first.json

rm -f results/trace_chaos_crash-restart_*.json

echo "recovery matrix OK"
