#!/bin/sh
# Full verification: tier-1 (build + tests) plus vet, hslint, the race
# detector, a fuzz smoke and a bench smoke.
#
# The race tier matters here because the optimizer and the experiment
# harness both run on worker pools; `go test -race` exercises the parallel
# II descents, the figure grids, and the determinism regression tests
# (which flip GOMAXPROCS between 1 and 8) under the race detector.
#
# hslint is the compile-time gate for the invariants the regression tests
# only check after the fact: no map-order, wall-clock or global-rand leaks
# into deterministic results (nodeterm, floatsum, detreach), all seed mixing
# in internal/seedmix (seedflow), no eager string building on the sim
# kernel's hot path (simhot), the charge-accumulator flush contract
# (chargeflow), and hold hygiene under interrupts (parksafe). See DESIGN.md
# §8 and §13. Findings are emitted as JSON (the shape CI archives), and a
# second pass audits waiver hygiene: a stale or duplicate //hslint: waiver
# fails the build just like a finding.
#
# Usage: scripts/verify.sh  (from anywhere inside the repo)
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
echo "== go test ./..."
go test ./...
echo "== go -C bench test ./... (bench/ is its own module, so ./... above never builds it)"
go -C bench test ./...
echo "== go vet ./..."
go vet ./...
echo "== hslint (project invariants; list waivers: go run ./cmd/hslint -waive ./...)"
hslint_json=$(mktemp)
if ! go run ./cmd/hslint -json ./... > "$hslint_json"; then
	cat "$hslint_json"
	rm -f "$hslint_json"
	echo "hslint: findings above — fix, or waive with //hslint:allow <analyzer> -- reason" >&2
	exit 1
fi
rm -f "$hslint_json"
echo "== hslint -staleness (waiver hygiene: stale or duplicate waivers fail)"
go run ./cmd/hslint -staleness ./...
echo "== go test -race ./..."
go test -race ./...
echo "== grid smoke (chaos, failover, coherence, overload under the race detector; diffed against their golden)"
# The plain-form twin of cmd/csq's TestGridsGolden (which pins the -v form):
# wall-clock lines are dropped, everything else must match byte for byte.
go run -race ./cmd/csq run -quick -reps 2 chaos failover coherence overload |
	sed '/^  \[/d' | diff -u cmd/csq/testdata/grids_quick.txt -
echo "== shardscale smoke (parallel kernel: fleet equality at 1/2/4/8 shards under the race detector)"
go run -race ./cmd/csq run -quick -reps 1 shardscale >/dev/null
echo "== fuzz smoke (2s per target)"
go test -run '^$' -fuzz '^FuzzPlanWellFormed$' -fuzztime 2s ./internal/plan/
go test -run '^$' -fuzz '^FuzzSeedMix$' -fuzztime 2s ./internal/seedmix/
go test -run '^$' -fuzz '^FuzzFaultSchedule$' -fuzztime 2s ./internal/faults/
echo "== bench smoke (1 iteration per benchmark, every package with benchmarks)"
# Derive the package list instead of hardcoding it, so new bench files are
# exercised automatically.
bench_pkgs=$(grep -rl --include='*_test.go' '^func Benchmark' . | xargs -n1 dirname | sort -u)
go test -run '^$' -bench . -benchtime 1x $bench_pkgs
echo "verify: OK"
