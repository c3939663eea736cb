#!/usr/bin/env bash
# Builds the pdfshield benchmark from source and runs it with the given
# arguments (see perfbench/main.go for the flags). Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload mixed_standard --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go caches and temporary files, Go config)
# stays under .bench_build in the checkout. Without the pdfshield module one
# directory up, the build fails and the script exits non-zero without a
# result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
