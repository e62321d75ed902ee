#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the harness (this package)
# and the product's `strudel` binary (the cluster workload's worker
# processes) into one target directory, then runs the harness with the
# driver's arguments. Both builds are no-ops after the first run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
cargo build --release --offline --quiet -p strudel-serve --bin strudel 1>&2
exec "$target/release/benchmark" "$@"
