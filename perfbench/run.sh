#!/usr/bin/env bash
# Builds the repository's `dms-experiments` binary (the `serve` subprocess of
# the service workload) and the benchmark, then runs the benchmark with the
# given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`); build logs go to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p dms-experiments --bin dms-experiments 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server-bin "$CARGO_TARGET_DIR/release/dms-experiments" "$@"
