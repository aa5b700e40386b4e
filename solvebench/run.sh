#!/usr/bin/env bash
# Builds the soctest daemon and the benchmark program from source, then
# runs the benchmark with this script's arguments:
#   bash solvebench/run.sh --workload NAME|all --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); build logs go to stderr.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
DUNE_CACHE=disabled dune build --root . --build-dir "$build" --profile release \
  ./bin/main.exe ./solvebench/main.exe 1>&2
exec "$build/default/solvebench/main.exe" --soctest "$build/default/bin/main.exe" "$@"
