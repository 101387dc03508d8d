#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it with the
# given arguments:
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
# Build output goes to .bench_build/ and stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release --display quiet \
  ./perfbench/main.exe >&2
exec ./.bench_build/default/perfbench/main.exe "$@"
