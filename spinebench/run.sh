#!/usr/bin/env bash
# Builds the spine benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash spinebench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binary and the
# segment directories the workloads write.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/spinebench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "spinebench: run from the repository root (spinebench/ and the repro module are both needed)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/spinebench" && go build -o "$out/spinebench" .) >&2

exec "$out/spinebench" -workdir "$out/work" "$@"
