#!/usr/bin/env bash
# Build the shipped `serve` binary and the benchmark binary from this
# checkout, then run the benchmark. Run from the repository root:
#
#   bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke]
#
# Build output goes to stderr; the last line on stdout is the JSON result.
# Binaries land in $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f benchmark/Cargo.toml ]]; then
    echo "run.sh: run from the repository root (needs Cargo.toml, crates/serve and benchmark/)" >&2
    exit 1
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p cuisine-serve --bin serve >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

rev=unknown
if [[ -d .git ]]; then
    rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi

exec "$CARGO_TARGET_DIR/release/cuisine-benchmark" \
    --serve-bin "$CARGO_TARGET_DIR/release/serve" --rev "$rev" "$@"
