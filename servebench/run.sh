#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it; every argument is
# passed through (see servebench/METRICS.md).  Run from the repository root:
#
#   bash servebench/run.sh --workload open-asp --seed 1 --seconds 20 --trace 0
#
# The build lands in $CARGO_TARGET_DIR when set, else in servebench/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/servebench" "$@"
