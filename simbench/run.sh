#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it. Run it from the
# repository root; every argument passes through to the benchmark binary:
#
#   bash simbench/run.sh --workload fig-weather-p64 --seed 1 --seconds 20 --trace 0
#   bash simbench/run.sh --stability 10 --seconds 20
#
# Build output (the binary, the Go build cache, the traced runs' span
# files) goes to $CARGO_TARGET_DIR, default .bench_build, under the current
# directory, so nothing is read or written outside the checkout.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/go-tmp" "$out/config"
export GOCACHE=$out/go-cache GOPATH=$out/go-path GOTMPDIR=$out/go-tmp XDG_CONFIG_HOME=$out/config
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$here" && go build -o "$out/simbench" .)
exec "$out/simbench" --spans-dir "$out/spans" "$@"
