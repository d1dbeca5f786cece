#!/usr/bin/env bash
# Campaign-smoke gate: the fixed CI campaign (smoke preset: 4 seeds x
# {clean + canonical chaos MATRIX} x {silent, equivocate} x both legal
# dex-freq pairs) run twice at different --jobs counts, cmp-ing the
# artifacts byte-for-byte — worker count and scheduling order must not
# leak into the results — and asserting the paper's adaptivity claim on
# the aggregated curves: the fast-decision rate is monotone non-increasing
# in f, and strictly higher at some f < t than at f = t on at least one
# canonical chaos schedule (--assert-monotone-f checks both).
#
# Leaves results/campaign_smoke.json and results/campaign_smoke.md behind
# for CI artifact upload and the step summary. Both JSON artifacts must
# parse (check_json, exported by scripts/ci.sh).
set -euo pipefail
cd "$(dirname "$0")/.."
declare -F check_json > /dev/null || { echo "run this as scripts/ci.sh <stage>: it defines check_json" >&2; exit 2; }

echo "campaign smoke: --jobs 1"
cargo run --release -q --bin dex-campaign -- \
  --config smoke --jobs 1 --out results/campaign_smoke_jobs1.json \
  --assert-monotone-f > /dev/null

echo "campaign smoke: --jobs 8"
cargo run --release -q --bin dex-campaign -- \
  --config smoke --jobs 8 --out results/campaign_smoke.json \
  --summary-md results/campaign_smoke.md --assert-monotone-f

echo "campaign determinism: --jobs 1 vs --jobs 8, byte-identical artifact"
cmp results/campaign_smoke.json results/campaign_smoke_jobs1.json
check_json results/campaign_smoke.json
rm -f results/campaign_smoke_jobs1.json

# One smoke cell (n=7, t=1, f=0 — the clean corner of the sweep) routed
# through the pipelined replication engine with echo aggregation on: the
# monotone-f staircase asserted above is computed from unaggregated cells,
# and this run proves the aggregation layer leaves the checker invariants
# (including the pipeline window-bound and slot-reuse checks) intact on
# the same configuration. The campaign artifact was cmp'd before this
# step, so the staircase is by construction unchanged by aggregation.
# Run twice and cmp'd: the pipeline trace names the slot each recycled
# instance was freed from, which once followed a HashMap's iteration order.
echo "campaign cell via --pipeline with aggregation: n=7 t=1, invariants, twice, byte-identical artifact"
PIPELINE_ARGS=(--n 7 --t 1 --algo dex-freq --f 0
               --pipeline 4:2 --aggregate --stats --seed 42 --trace)
rm -f results/trace_pipeline_42.json results/trace_pipeline_42.first.json
cargo run --release -q --bin dex-sim -- "${PIPELINE_ARGS[@]}" > /dev/null
mv results/trace_pipeline_42.json results/trace_pipeline_42.first.json
cargo run --release -q --bin dex-sim -- "${PIPELINE_ARGS[@]}" > /dev/null
cmp results/trace_pipeline_42.json results/trace_pipeline_42.first.json
check_json results/trace_pipeline_42.json
rm -f results/trace_pipeline_42.json results/trace_pipeline_42.first.json

echo "campaign smoke OK"
