#!/usr/bin/env bash
# Benchmark entry point, run from the repository root:
#
#   bash bench/ledger/run.sh --workload mf-solve --seed 1 --seconds 15 --trace 0
#
# Builds the two programs under test and the ledger from source, then
# runs `ledger.exe run` with the given arguments.  The ledger runs as a
# child of this shell, not in its place, so that the peak resident set
# it reads of its children excludes the build.
set -euo pipefail

# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./bin/umf_serve.exe ./bin/umf_cli.exe ./bench/ledger/ledger.exe >&2
./_build/default/bench/ledger/ledger.exe run "$@"
