#!/usr/bin/env bash
# Builds the benchmark offline and runs it from the repo root.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       one run of one workload; the last stdout line is its result object
#       (the form the driver calls)
#   benchmark/run.sh [--seed N] [--seconds S] [--runs K] [--trace 0|1] [--label L]
#       every workload, each run in its own process, run r at seed N + r;
#       writes benchmark/out/summary_<L>.json for compare.sh
#
# Exits non-zero if the build fails or any output check does.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/dex-benchmark"
case " $* " in
*" --workload "*) exec "$bin" "$@" --out benchmark/out ;;
*) exec "$bin" suite "$@" --out benchmark/out ;;
esac
