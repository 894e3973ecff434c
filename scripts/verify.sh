#!/bin/sh
# Full verification: a gofmt gate, tier-1 (build + tests) plus vet, hslint, the race
# detector, an examples smoke, a fuzz smoke, a bench smoke and a bench-pairs
# smoke.
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

echo "== gofmt -l . (the whole tree, bench/ included)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "gofmt: the files above are not formatted — run gofmt -w on them" >&2
	exit 1
fi
echo "== go build ./..."
go build ./...
echo "== go test ./..."
go test ./...
echo "== go -C bench test ./... (bench/ is its own module, so ./... above never builds it)"
go -C bench test ./...
echo "== go -C bench vet ./... (bench/ calls exec.RunBound on a shared Kernel)"
go -C bench vet ./...
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
echo "== examples smoke (every examples/*/ program, then csq run fig1; a non-zero exit fails)"
# Derived from the directory list, so a new example runs here without being
# listed. Each program takes well under a second once built.
examples_bin=$(mktemp -d)
trap 'rm -rf "$examples_bin"' EXIT
for dir in examples/*/; do
	name=$(basename "$dir")
	go build -o "$examples_bin/$name" "./$dir"
	echo "   $name"
	"$examples_bin/$name" >/dev/null
done
go run ./cmd/csq run fig1 >/dev/null
echo "== fuzz smoke (2s per target, every Fuzz function in the tree)"
# Derived like the bench smoke's package list, so a new fuzz target runs
# here without being listed. Each line is "<package dir> <target>".
grep -r --include='*_test.go' -o '^func Fuzz[A-Za-z0-9_]*' . | sed 's|/[^/]*:func | |' | sort |
	while read -r dir target; do
		go test -run '^$' -fuzz "^$target\$" -fuzztime 2s "$dir/"
	done
echo "== bench smoke (1 iteration per benchmark, every package with benchmarks)"
# Derive the package list instead of hardcoding it, so new bench files are
# exercised automatically.
bench_pkgs=$(grep -rl --include='*_test.go' '^func Benchmark' . | xargs -n1 dirname | sort -u)
go test -run '^$' -bench . -benchtime 1x $bench_pkgs
echo "== bench pairs smoke (scripts/bench_pairs.sh against HEAD: 1 pair of one-request runs per workload)"
bash scripts/bench_pairs.sh HEAD 1 1e-9 >/dev/null
echo "verify: OK"
