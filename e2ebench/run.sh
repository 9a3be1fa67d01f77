#!/usr/bin/env bash
# Builds e2ebench from this checkout's sources and runs it with the given
# arguments from the root of the checkout. Everything the build writes —
# the binary and the Go build cache — stays under .bench_build/ in the
# checkout, and nothing is fetched from the network.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/e2ebench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/e2ebench" .)

cd "$root"
exec "$out/e2ebench" "$@"
