#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload serve-greedy --seed 1 --seconds 36 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write (the Go build cache, the binary, the measurement stores and the
# span files) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/go-tmp"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/go-tmp"
export GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out/work" "$@"
