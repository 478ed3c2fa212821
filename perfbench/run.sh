#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the repository
# root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload publish --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and the generated stores all live under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (the program's sources are not here)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
unset GOMAXPROCS
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --work "$build/work" "$@"
