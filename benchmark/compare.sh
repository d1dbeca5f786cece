#!/usr/bin/env bash
# Compares two summaries written by run.sh (a = parent, b = change): applies
# every end-to-end metric's direction and bound, per workload. Metrics that
# repeat exactly must be equal; a metric whose run-to-run spread exceeds its
# bound is "unresolved", not "unchanged". Exits non-zero on a regression.
#
#   benchmark/compare.sh benchmark/out/summary_a.json benchmark/out/summary_b.json
set -euo pipefail
if [ "$#" -ne 2 ]; then
    echo "usage: benchmark/compare.sh <a.json> <b.json>" >&2
    exit 2
fi
a="$(realpath "$1")"
b="$(realpath "$2")"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/dex-benchmark" compare "$a" "$b"
