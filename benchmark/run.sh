#!/usr/bin/env bash
# The benchmark's one command. From the repository root:
#
#   bash benchmark/run.sh                      every workload, both modes, prints and writes every metric
#   bash benchmark/run.sh --smoke              the same code paths in a few seconds
#   bash benchmark/run.sh --compare A.json B.json
#   bash benchmark/run.sh --workload chain_mov --seed 1 --seconds 20 --trace 0
#
# It builds the harness offline (a workspace of its own; the root
# workspace is untouched) and runs it. The kernel engine and co-execution
# are pinned by the harness; the variables that could change them are
# cleared here as well so the build and the run see the same environment.
set -euo pipefail
cd "$(dirname "$0")/.."
unset OCLSIM_ENGINE OCLSIM_COEXEC
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
