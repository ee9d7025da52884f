#!/usr/bin/env bash
# Builds `mind-node` and the end-to-end benchmark from this checkout, then
# runs one benchmark invocation:
#
#   bash e2ebench/run.sh --workload <ingest|query_mixed|sim_paper> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the last line on stdout is the JSON result.
# Honours CARGO_TARGET_DIR (default: the repository's `target/`).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p mind-runtime --bin mind-node 1>&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/mind-e2ebench" \
    --node-bin "$CARGO_TARGET_DIR/release/mind-node" "$@"
