#!/usr/bin/env bash
# Builds the sharc benchmark from source and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Every build artefact, cache and temporary
# file stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry and env files
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
# The workloads allocate 21-260 MB per op. With the runtime's default
# MADV_DONTNEED, the scavenger hands freed pages back to the kernel at a
# rate that differs per process, and re-faulting them cost from 110 to 770
# page faults per serve-mix request, moving req/s by 25% between processes
# on a 2-vCPU host. MADV_FREE leaves them mapped until the kernel needs
# them: about 30 faults per request, and the GC work the program causes
# is measured unchanged.
export GODEBUG=madvdontneed=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
