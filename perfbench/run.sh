#!/bin/sh
# Builds the program under test and the benchmark from source, then runs
# the benchmark with the arguments given, e.g.
#   sh perfbench/run.sh --workload serve_evaluate --seed 1 --seconds 20 --trace 0
# Run it from the root of a checkout.  Build output goes to stderr so the
# last line of stdout stays the JSON result.
set -eu
dune build --root . ./bin/syndex.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe \
  --syndex ./_build/default/bin/syndex.exe \
  --started-ns "$(date +%s%N)" "$@"
