#!/usr/bin/env bash
# Builds agbench from this checkout and runs it from the checkout root,
# passing every argument through, e.g.
#
#   bash bench/run.sh --workload paper --seed 7 --seconds 10 --trace 0
#
# The Go build cache, module cache and binary live in .bench_build at the
# checkout root, so nothing is read from or written to the home directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/agbench" ./agbench)
cd "$root"
exec "$build/agbench" "$@"
