#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it with the
# given arguments (see perfbench/README.md):
#   bash perfbench/run.sh --workload sim-suite --seed 42 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --build-dir .bench_build --cache=disabled --display=quiet \
  ./perfbench/main.exe 1>&2
exec .bench_build/default/perfbench/main.exe "$@"
