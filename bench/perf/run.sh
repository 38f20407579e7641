#!/usr/bin/env bash
# Build the simulator and the benchmark from source, then run the
# benchmark with the given arguments, e.g.
#   bash bench/perf/run.sh --workload serve-hot-sweep --seed 1 --seconds 20 --trace 0
# Build output goes to stderr so that the last line of stdout is the
# benchmark's result object.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . ./bench/perf/perf.exe ./bin/opm_sim.exe ./bin/opm_serve.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
