#!/usr/bin/env bash
# Builds recserve, kvserver and the benchmark binary from source, then runs
# one benchmark workload:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it writes (binaries, the Go
# build cache, generated worlds, span dumps) lands under $CARGO_TARGET_DIR,
# default .bench_build, inside the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac

if [[ ! -f $root/go.mod || ! -d $root/cmd/recserve || ! -f $root/perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (no go.mod, cmd/recserve or perfbench/go.mod here)" >&2
	exit 2
fi

mkdir -p "$out/bin" "$out/home"
# Keep the Go toolchain's caches and config inside the build directory.
export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export HOME=$out/home
export XDG_CONFIG_HOME=$out/home/.config
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

go build -o "$out/bin/recserve" ./cmd/recserve
go build -o "$out/bin/kvserver" ./cmd/kvserver
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
