#!/usr/bin/env bash
# Builds `neural-ner` and the benchmark from this checkout, then runs one
# workload. Usage, from the checkout root:
#
#   bash perfbench/run.sh --workload serve-steady --seed 1 --seconds 10 --trace 0
#
# Build artefacts go to $CARGO_TARGET_DIR (default .bench_build); reports
# go to $CARGO_TARGET_DIR/perfbench/reports. The last line of standard
# output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates/cli || ! -d compat ]]; then
    echo "perfbench: not a neural-ner checkout (no Cargo.toml, crates/cli or compat/ here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ner-cli --bin neural-ner >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server-bin "$CARGO_TARGET_DIR/release/neural-ner" \
    --out-dir "$CARGO_TARGET_DIR/perfbench" "$@"
