#!/usr/bin/env bash
# Builds perf_ledger from the sources of the checkout it is run in (the
# first call configures and compiles; later calls are no-op builds), then
# runs it with the given arguments.  Run it from the repo root, e.g.
#
#   bash bench/perf_ledger/run.sh --workload cache-7pt --seed 1 --seconds 20 --trace 0
#
# The build goes to $CARGO_TARGET_DIR/perf_ledger (default .bench_build)
# and logs to stderr, so the last stdout line stays the run's JSON result.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}/perf_ledger"

if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$src" -B "$build" "${generator[@]}" >&2
fi
cmake --build "$build" --target perf_ledger -j "$(nproc)" >&2
exec "$build/perf_ledger" "$@"
