#!/bin/sh
# Build the daemon and the benchmark from source, then run the benchmark.
# Run from the repository root; arguments go to the benchmark unchanged.
# The shared dune cache is off so the build writes only under _build/.
set -e
DUNE_CACHE=disabled dune build --root . --display quiet bin/ftl.exe perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
