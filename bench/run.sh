#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload paper-sweep --seed 42 --seconds 30 --trace 0
#
# Run it from the repository root. The binary and the Go build cache
# live in .bench_build/ at the root, so a run reads and writes nothing
# outside the checkout apart from the Go toolchain itself. The first run
# compiles the standard library into that cache; later runs only check
# that the binary is current.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
