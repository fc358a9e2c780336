#!/usr/bin/env bash
# Builds the benchmark from source into benchmark/out and runs it with
# the given arguments. Everything the build and the run write (Go build
# cache, binary, results, traces, the program's temp files) stays under
# benchmark/out, so a checkout is left with nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local
# Build output goes to stderr: stdout carries only the benchmark's report.
(cd "$here" && go build -o "$out/fudj-e2e" .) 1>&2
exec "$out/fudj-e2e" -out "$out" "$@"
