#!/usr/bin/env bash
# Builds the study benchmark from the sources of the checkout it sits in,
# then runs it. Every build artefact and every scratch file stays under
# .bench_build/ at the checkout root.
#
#   bash studybench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/studybench" .) >&2
exec "$build/studybench" -root "$root" "$@"
