#!/usr/bin/env bash
# Tier-1 CI gate, as a stage dispatcher: `ci.sh <stage>` runs one stage,
# `ci.sh` (or `ci.sh all`) runs the full sequence. CI jobs and humans use
# the same entrypoints — the workflow matrix in .github/workflows/ci.yml
# fans these exact stages out as jobs.
#
# Stages:
#   lint             cargo fmt --check + clippy -D warnings + rustdoc
#                    -D warnings (first-party); the workflow's stage matrix
#                    names only stages below
#   build            warning-free release build of the workspace + examples
#   test             full test suite (twice, default parallelism; includes the
#                    simnet multicast/chaos delivery-log properties), example
#                    smokes (window_scan at n = 7, 8 slots; threaded_consensus:
#                    agreement and quiescence on OS threads), trace determinism:
#                    dex-sim --trace at n = 7, dex-freq, seed 31 (twice), and at
#                    n = 8, f = 1 equivocating, seed 31 for bosco, plain,
#                    brasileiro and crash-adaptive, equals the committed
#                    results/logs/trace_31_<algo>.json
#   results          DEX_RUNS=100 dex-figures all: stdout equals the committed
#                    results/logs transcripts, results/*.csv unchanged;
#                    dex-sim --pipeline 8:4 --seed 5 --stats at n = 31, 63
#                    and 127, and at n = 31 with --aggregate, equals
#                    results/logs/pipeline_n{31,31_agg,63,127}_seed5.log;
#                    the sequential log (--pipeline 1:4 at n = 7) equals
#                    results/logs/pipeline_n7_w1_seed5.log
#   chaos-matrix     chaos schedules x seeds through the invariant checker
#   recovery-matrix  --chaos crash-restart across seeds through the checker,
#                    seed 31 artifact twice, cmp (the recovery test suite
#                    and the chaos-free seed-31 pin run in `test`)
#   campaign-smoke   fixed campaign twice at different --jobs, cmp + curves;
#                    pipelined cell traced twice, cmp
#   netd-smoke       dex-netd's tests three times in a row (a lost wake-up
#                    of a mesh's I/O thread is a rare hang, not a
#                    failure), then real-process TCP clusters: MATRIX
#                    cells at n = 5, t = 0 (a kill -9 there is refused),
#                    kill -9 + respawn at n = 7, t = 1, windows 4 and 1,
#                    and the n = 31, t = 5 cells
#   netd-chaos       fault-injected TCP links: chaos schedules, reproducible
#                    fault traces, a kill -9 + respawn, a campaign point
#   benchmark-smoke  benchmark/ builds and tests offline against this
#                    checkout; all six workloads (simlog-n31, -agg,
#                    chaoslog-n13, campaign-std, both netlog), 3 s each,
#                    exit 0; scripts/profile.sh simlog-n31 for 2 s prints
#                    a self and an inclusive table, each naming at least
#                    one dex_ function
#   all              everything above, in order (the default)
#
# Every JSON file a stage writes must parse: check_json runs jq -e . on
# each, so the stages that write JSON need jq installed.
#
# The workspace builds fully offline: every external dependency is vendored
# as a path crate under vendor/ and pinned by the committed Cargo.lock.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lints gate first-party code only; vendored stand-ins are checked as-is.
FIRST_PARTY=(--workspace --exclude crossbeam --exclude proptest --exclude rand)

# Exported, so the stage scripts below call it on their artifacts before
# they clean up.
check_json() {
  command -v jq > /dev/null || { echo "check_json: jq is not installed" >&2; exit 1; }
  local file
  for file in "$@"; do
    jq -e . "$file" > /dev/null || { echo "check_json: $file is not valid JSON" >&2; exit 1; }
  done
}
export -f check_json

stage_lint() {
  echo "== fmt"
  cargo fmt --all -- --check

  echo "== clippy"
  cargo clippy "${FIRST_PARTY[@]}" --all-targets -- -D warnings

  echo "== rustdoc"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${FIRST_PARTY[@]}"

  echo "== workflow matrix stages are ci.sh stages"
  for s in $(sed -n 's/^ *stage: \[\(.*\)\]$/\1/p' .github/workflows/ci.yml | tr -d ','); do
    grep -q "^  $s) stage_" scripts/ci.sh || { echo "workflow stage '$s' is not a ci.sh stage" >&2; exit 1; }
  done
}

stage_build() {
  echo "== build (release, deny warnings)"
  RUSTFLAGS="-D warnings" cargo build --release --workspace

  echo "== build examples (deny warnings)"
  RUSTFLAGS="-D warnings" cargo build --release --examples
}

stage_test() {
  # Twice, at cargo's default test parallelism: the second pass is what
  # catches tests that share a port, a file or a global with a neighbour.
  echo "== test (pass 1 of 2)"
  cargo test -q --workspace
  echo "== test (pass 2 of 2)"
  cargo test -q --workspace

  echo "== example smoke: quickstart, equivocation_demo, window_scan 7 1 8, threaded_consensus"
  cargo run --release -q --example quickstart > /dev/null
  cargo run --release -q --example equivocation_demo > /dev/null
  cargo run --release -q --example window_scan -- 7 1 8 > /dev/null
  cargo run --release -q --example threaded_consensus > /dev/null

  echo "== trace determinism: dex-sim --trace twice, byte-identical to results/logs/trace_31_dex-freq.json"
  local trace_args=(--n 7 --t 1 --algo dex-freq --workload bernoulli:0.8 --f 1
                    --adversary equivocate --runs 3 --seed 31 --trace)
  rm -f results/trace_31.json results/trace_31.first.json
  cargo run --release -q --bin dex-sim -- "${trace_args[@]}" > /dev/null
  mv results/trace_31.json results/trace_31.first.json
  cargo run --release -q --bin dex-sim -- "${trace_args[@]}" > /dev/null
  cmp results/trace_31.json results/trace_31.first.json
  cmp results/trace_31.json results/logs/trace_31_dex-freq.json
  check_json results/trace_31.json
  rm -f results/trace_31.json results/trace_31.first.json

  # The baselines' event streams (ViewSet, Decide, send/deliver stamps) are
  # in no CSV or transcript; the committed artifacts pin them byte for byte.
  echo "== trace identity: baseline dex-sim --trace vs results/logs/trace_31_<algo>.json"
  local algo
  for algo in bosco plain brasileiro crash-adaptive; do
    cargo run --release -q --bin dex-sim -- --n 8 --t 1 --algo "$algo" \
      --workload bernoulli:0.8 --f 1 --adversary equivocate --runs 3 --seed 31 --trace > /dev/null
    cmp results/trace_31.json "results/logs/trace_31_$algo.json"
    check_json results/trace_31.json
  done
  rm -f results/trace_31.json
}

stage_results() {
  # `all` is the 14 deterministic figures in --list order (fuzz_safety, the
  # last name, prints wall-clock runs/s and stays out of the gate), so its
  # stdout must equal their committed transcripts laid end to end.
  echo "== results: DEX_RUNS=100 dex-figures all vs results/logs/*.log and results/*.csv"
  cargo build --release -q --bin dex-figures --bin dex-sim
  local names
  names=$(./target/release/dex-figures --list | grep -vx fuzz_safety)
  DEX_RUNS=100 ./target/release/dex-figures all \
    | diff <(for n in $names; do cat "results/logs/results_$n.log"; done) -
  if [ -n "$(git status --short results)" ]; then
    echo "regenerated results differ from the committed ones:" >&2
    git status --short results >&2
    exit 1
  fi

  # The pipelined log's --stats block has no wall-clock in it: values per
  # ktick, wire bytes and per-class message counts pin the schedule of an
  # n^2 echo flood that the figures above (n <= 31, single-shot) never run:
  # one and two sender-bitset words (n = 31, 63 / n = 127, ~10 s), and the
  # by-reference unbatching path (--aggregate).
  echo "== results: dex-sim --pipeline 8:4 --seed 5 --stats at n = 31 (plain, --aggregate), 63, 127 vs results/logs/pipeline_n*_seed5.log"
  ./target/release/dex-sim --n 31 --t 5 --pipeline 8:4 --seed 5 --stats \
    | diff results/logs/pipeline_n31_seed5.log -
  ./target/release/dex-sim --n 31 --t 5 --pipeline 8:4 --aggregate --seed 5 --stats \
    | diff results/logs/pipeline_n31_agg_seed5.log -
  ./target/release/dex-sim --n 63 --t 10 --pipeline 8:4 --seed 5 --stats \
    | diff results/logs/pipeline_n63_seed5.log -
  ./target/release/dex-sim --n 127 --t 21 --pipeline 8:4 --seed 5 --stats \
    | diff results/logs/pipeline_n127_seed5.log -
  echo "== results: dex-sim --pipeline 1:4 --seed 5 --stats at n = 7 (the sequential log) vs results/logs/pipeline_n7_w1_seed5.log"
  ./target/release/dex-sim --n 7 --t 1 --pipeline 1:4 --seed 5 --stats \
    | diff results/logs/pipeline_n7_w1_seed5.log -
}

stage_chaos_matrix() {
  echo "== chaos matrix: 8 seeds x 4 schedules through the invariant checker"
  ./scripts/chaos_matrix.sh
}

stage_recovery_matrix() {
  echo "== recovery matrix: --chaos crash-restart x seeds, byte-stable artifact"
  ./scripts/recovery_matrix.sh
}

stage_campaign_smoke() {
  echo "== campaign smoke: fixed sweep twice at different --jobs, cmp + rate curves; pipeline trace twice, cmp"
  ./scripts/campaign_smoke.sh
}

stage_netd_smoke() {
  # A mesh's I/O thread is woken only when it is about to poll: a lost
  # wake-up shows as a rare hang, so one green pass proves little.
  local pass
  for pass in 1 2 3; do
    echo "== netd smoke: dex-netd tests, pass $pass of 3"
    cargo test --release -q -p dex-netd
  done
  echo "== netd smoke: 5 real processes over TCP decide; 7 survive kill -9 + respawn; 31 decide"
  ./scripts/netd_smoke.sh
}

stage_netd_chaos() {
  echo "== netd chaos: MATRIX schedules on live sockets + kill -9"
  ./scripts/netd_chaos.sh
}

stage_benchmark_smoke() {
  # benchmark/ is a package of its own that reaches the program through
  # path dependencies and public items only (dex_netd::{Endpoint, Mesh},
  # dex_simnet, ...): a signature change there breaks this build, not the
  # workspace's.
  echo "== benchmark smoke: build + test benchmark/ offline"
  (cd benchmark && cargo test --release --offline -q)

  # simlog-n31-agg takes the aggregated unbatch path, chaoslog-n13 the
  # W = 1 durable crash-restart path, campaign-std the per-run construction.
  echo "== benchmark smoke: all six workloads, 3 s each, every output check"
  local workload
  for workload in netlog-n7-w1 netlog-n7-w8 simlog-n31 simlog-n31-agg chaoslog-n13 campaign-std; do
    bash benchmark/run.sh --workload "$workload" --seconds 3 > /dev/null
  done

  # A table without one dex_ function means the frame-pointer build, the
  # sampler or the symbolisation broke.
  echo "== benchmark smoke: scripts/profile.sh simlog-n31, 2 s, both tables name dex_ functions"
  local profile table
  profile=$(./scripts/profile.sh simlog-n31 --seconds 2)
  for table in self inclusive; do
    if ! awk -v head="== $table " 'index($0, "== ") == 1 { on = index($0, head) == 1; next }
        on && /dex_/ { found = 1 } END { exit !found }' <<< "$profile"; then
      echo "no $table table naming a dex_ function in the profile:" >&2
      echo "$profile" >&2
      exit 1
    fi
  done
}

usage() {
  # The leading comment block, whatever its length.
  awk 'NR > 1 { if (!/^#/) exit; sub(/^# ?/, ""); print }' scripts/ci.sh
}

stage="${1:-all}"
case "$stage" in
  lint) stage_lint ;;
  build) stage_build ;;
  test) stage_test ;;
  results) stage_results ;;
  chaos-matrix) stage_chaos_matrix ;;
  recovery-matrix) stage_recovery_matrix ;;
  campaign-smoke) stage_campaign_smoke ;;
  netd-smoke) stage_netd_smoke ;;
  netd-chaos) stage_netd_chaos ;;
  benchmark-smoke) stage_benchmark_smoke ;;
  all)
    stage_lint
    stage_build
    stage_test
    stage_results
    stage_chaos_matrix
    stage_recovery_matrix
    stage_campaign_smoke
    stage_netd_smoke
    stage_netd_chaos
    stage_benchmark_smoke
    echo "== ci OK"
    ;;
  -h|--help|help) usage ;;
  *)
    echo "unknown stage '$stage'" >&2
    usage >&2
    exit 2
    ;;
esac
