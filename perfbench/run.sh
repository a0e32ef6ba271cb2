#!/usr/bin/env bash
# Builds the toolchain and the benchmark from source in the current
# checkout, then runs the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload run-wide --seed 1 --seconds 10 --trace 0
set -euo pipefail
dune build --root . --display quiet \
  ./perfbench/main.exe ./bin/qirc.exe ./bin/qir_run.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
