#!/usr/bin/env bash
# Builds the e2ebench binary from the sources of the checkout it is run in,
# then runs it with the given flags:
#
#   bash e2ebench/run.sh --workload climate-eager --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the benchmark
# write stays under .bench_build/ there: the Go build cache, the benchmark
# binary, temporary files and the per-run result and span files.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/mpirun" ] || [ ! -f "$root/e2ebench/go.mod" ]; then
	echo "e2ebench: run from the root of an mph checkout (no mph sources here)" >&2
	exit 2
fi

out="$root/.bench_build/e2ebench"
mkdir -p "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS= CGO_ENABLED=0

# The commit for the result stamp, when the checkout is a git work tree of
# its own; the benchmark also fingerprints the sources, which works without git.
commit=unknown
if command -v git >/dev/null 2>&1 && [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
	git -C "$root" diff --quiet HEAD -- 2>/dev/null || commit="$commit+modified"
fi
export E2EBENCH_COMMIT="$commit"

(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" "$@"
