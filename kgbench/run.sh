#!/usr/bin/env bash
# Build the benchmark and the kgmodel CLI from this checkout's sources,
# then run one workload:
#   bash kgbench/run.sh --workload W --seed N --seconds S --trace 0|1
# The build log goes to stderr; stdout carries only the benchmark's lines.
set -euo pipefail
cd "$(dirname "$0")/.."
# build inside the checkout only: no shared dune cache in the home directory
export DUNE_CACHE=disabled
dune build --root . ./kgbench/kgbench.exe ./bin/kgmodel_cli.exe >&2
exec ./_build/default/kgbench/kgbench.exe \
  --cli ./_build/default/bin/kgmodel_cli.exe "$@"
