#!/usr/bin/env bash
# Checks that a change leaves simulated behaviour untouched: runs a short
# request set of each benchmark workload (join2, join10, serve-rw; seed 7)
# at a base revision and in the working tree, and compares their "# digest"
# lines — the SHA-256 of the request outputs and of the generated setup.
# A pure-performance change must print equal digests on every workload.
#
# Usage: scripts/bench_digest.sh [base-rev]   (default HEAD)
#
# The base revision is exported with git archive into a temp directory that
# is removed on exit. The working tree's build stays in bench/.build, which
# bench/.gitignore ignores. Exits non-zero if any digest differs.
set -euo pipefail

cd "$(dirname "$0")/.."
base_rev="${1:-HEAD}"
base_sha=$(git rev-parse --verify "$base_rev^{commit}")

tmp=$(mktemp -d)
trap 'chmod -R u+w "$tmp" 2>/dev/null; rm -rf "$tmp"' EXIT
git archive "$base_sha" | tar -x -C "$tmp"

digest() { # digest <repo-dir> <workload>
	bash "$1/bench/run.sh" --workload "$2" --seed 7 --seconds 1e-9 | grep '^# digest'
}

status=0
for w in join2 join10 serve-rw; do
	want=$(digest "$tmp" "$w")
	got=$(digest . "$w")
	if [ "$want" = "$got" ]; then
		echo "$w: equal  $got"
	else
		echo "$w: DIFFERENT"
		echo "  $base_rev:      $want"
		echo "  working tree: $got"
		status=1
	fi
done
exit $status
