#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload setup-cold --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and temporary files stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build). Without the
# repository's sources next to perfbench/ the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/home/go"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
