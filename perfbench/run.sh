#!/bin/sh
# Build the benchmark from the sources of this checkout, then run it:
#   sh perfbench/run.sh --workload fig2-stream --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.
set -e
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
