#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it there:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (Go's build cache included) goes under
# .bench_build/ at the root of the checkout; everything a run writes goes
# under bench/out/. Both are in .gitignore.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/fpbench" .)
cd "$root"
exec "$build/fpbench" "$@"
