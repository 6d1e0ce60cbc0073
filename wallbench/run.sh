#!/usr/bin/env bash
# Build the benchmark and the hs-worker it drives, then run it.
#
#   bash wallbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
# .bench_build); temporary files stay under it too. Build output goes to
# standard error, so the last line of standard output is the result.
set -euo pipefail

root="$(pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$root/$CARGO_TARGET_DIR" ;;
esac
mkdir -p "$target/tmp"
export TMPDIR="$target/tmp"

cargo build --release --offline --quiet --manifest-path "$root/wallbench/Cargo.toml" >&2

exec "$target/release/hs-wallbench" --worker "$target/release/hs-worker" "$@"
