#!/usr/bin/env bash
# Builds the benchmark and the muontrapd daemon from the checkout this
# directory sits in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload spec-cold --seed 1 --seconds 20 --trace 0
#
# Binaries, the Go build cache and every file a run writes stay under
# .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local \
	GOWORK=off GOFLAGS= XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
(
	cd "$here"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/muontrapd" repro/cmd/muontrapd
) >&2
exec "$out/bin/perfbench" -root "$root" -daemon "$out/bin/muontrapd" "$@"
