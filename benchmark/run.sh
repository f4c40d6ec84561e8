#!/usr/bin/env bash
# Build the benchmark and the daemon it drives, then run one workload:
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# from the repository root.  The build stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./benchmark/magis_bench.exe ./bin/magis_serve.exe 1>&2
# One CPU for the benchmark and the daemon it spawns: the CPUs of a
# shared host slow down independently, and the host-speed kernel
# (benchmark/measure.ml) must time the CPU the program runs on.
exec taskset -c 0 ./_build/default/benchmark/magis_bench.exe "$@"
