#!/usr/bin/env bash
# Builds msqlbench from this checkout's sources, then runs it with the given
# arguments (README.md). Build output goes to stderr; the benchmark's own
# output, ending in its one-line JSON result, goes to stdout.
#
#   bash bench/e2e/run.sh --workload dashboard --seed 1 --seconds 10 --trace 0
#   bash bench/e2e/run.sh --all --seed 1
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}/msqlbench"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null; then generator=(-G Ninja); fi
  cmake -S bench/e2e -B "$build" "${generator[@]}" >&2
fi
cmake --build "$build" --target msqlbench -j 4 >&2
exec "$build/msqlbench" --out-dir="$build/out" "$@"
