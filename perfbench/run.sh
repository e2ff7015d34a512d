#!/bin/sh
# Builds cmd/dqserve and the benchmark from the checkout it is run in, then
# runs one benchmark workload. Run it from the repository root:
#
#	sh perfbench/run.sh --workload warm-hits --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the two
# binaries) lands under .bench_build/ in the checkout. Without the
# repository's sources next to perfbench/ the build fails and the script
# exits non-zero before printing a result.
#
# Go telemetry is switched off in that private config directory: in its
# default mode the go command starts a detached sidecar process that can
# outlive the build, and the benchmark must leave no process behind.
set -eu

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local

go build -o "$out/dqserve" ./cmd/dqserve
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -dqserve "$out/dqserve" "$@"
