#!/usr/bin/env bash
# Builds the benchmark against the library in the directory above and runs
# it.  From the root of the repository:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--seconds S] [--repeat K]
#   benchmark/run.sh --bless
#
# See README.md in this directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Reuse the workspace's build directory unless the caller names one; a
# relative name is taken from where the caller stands.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# The build's chatter goes to stderr: stdout is the benchmark's alone.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

XPEVAL_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export XPEVAL_BENCH_COMMIT
exec "$target/release/xpeval-benchmark" "$@"
