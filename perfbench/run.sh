#!/usr/bin/env bash
# Builds the `chain2l` daemon and the perfbench load generator from source,
# then runs one benchmark workload against a freshly spawned daemon.
#
#   bash perfbench/run.sh --workload hit|cold|grow --seed N --seconds S --trace 0|1
#
# Build outputs go to $CARGO_TARGET_DIR (default: .bench_build at the
# repository root); daemon logs, snapshots and traces go to its perfbench/
# subdirectory.  The last line of standard output is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p chain2l-cli --bin chain2l 1>&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" 1>&2

exec "$target/release/perfbench" \
    --daemon "$target/release/chain2l" \
    --work-dir "$target/perfbench" \
    "$@"
