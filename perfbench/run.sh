#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload retrieve-cold --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --selftest
#
# Everything it writes (Go build cache and temporary files, binary,
# scratch repositories, traces) stays under $CARGO_TARGET_DIR, or
# .bench_build when unset.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/perfbench" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" -workdir "$out/perfbench" "$@"
