#!/usr/bin/env bash
# Measures a change against a base revision in interleaved pairs: for each
# workload, runs the benchmark (bench/run.sh, seed 7) once at the base and
# once in the working tree, `pairs` times, alternating which side runs
# first so that a drift in the host's speed falls on both sides alike. For
# every end-to-end metric of BENCHMARK.json it prints each side's median
# and quartiles, the change of the medians, in how many pairs the working
# tree did better, the per-pair head/base ratio's median and quartiles,
# and the verdict of a two-sided sign test over the pairs: "better shown"
# or "worse shown" when the wins (or the losses) reach p <= 0.05, with tied
# pairs left out, and "no change shown" otherwise. Of 10 pairs that takes
# 9 wins (p = 0.021; 8 wins give p = 0.109). The last line of output is one
# JSON object with the same numbers, the line BENCH_ledger.jsonl keeps per
# change; "shown" is "better", "worse" or "none".
#
# Usage: scripts/bench_pairs.sh <base-rev> [pairs] [seconds] [workload ...]
#   pairs    runs per side and workload (default 10)
#   seconds  measured seconds per run (default 30)
#   workload default: join2 join10 serve-rw
#
# The base revision is exported with git archive into a temp directory that
# is removed on exit; each side builds its own benchmark binary under its
# bench/.build. Exits non-zero if a run fails or prints no result.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ $# -lt 1 ]; then
	echo "usage: $0 <base-rev> [pairs] [seconds] [workload ...]" >&2
	exit 2
fi
base_rev=$1
pairs=${2:-10}
seconds=${3:-30}
shift $(($# < 3 ? $# : 3))
workloads=${*:-join2 join10 serve-rw}

base_sha=$(git rev-parse --verify "$base_rev^{commit}")
head_sha=$(git rev-parse HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	head_sha="$head_sha+worktree"
fi

tmp=$(mktemp -d)
trap 'chmod -R u+w "$tmp" 2>/dev/null; rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base_sha" | tar -x -C "$tmp/base"

# The end-to-end metrics and whether higher is better, one "name better"
# pair per line, from BENCHMARK.json's one-entry-per-line end_to_end list.
metrics=$(sed -n '/"end_to_end"/,/\]/s/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*/\1 \2/p' BENCHMARK.json)

# run <repo-dir> <workload> <out-file>: one run, appending "metric value"
# lines and a "failed_share" line to out-file.
run() {
	local json
	json=$(bash "$1/bench/run.sh" --workload "$2" --seed 7 --seconds "$seconds" | grep '^{' | tail -1)
	if [ -z "$json" ]; then
		echo "bench_pairs: $1: no result for $2" >&2
		exit 1
	fi
	echo "$metrics" | while read -r name _; do
		echo "$json" | sed -n "s/.*\"$name\":{\"value\":\([-0-9.eE+]*\).*/$name \1/p"
	done >>"$3"
	echo "$json" | sed -n 's/.*"attempted":\([0-9]*\),"failed":\([0-9]*\).*/failed_share \2 \1/p' |
		awk '{print $1, ($3 > 0 ? $2 / $3 : 0)}' >>"$3"
}

# summary <base-file> <head-file> <better>: for one metric's values (one
# per line, in pair order), prints "base_q1 base_median base_q3 head_q1
# head_median head_q3 wins ratio_q1 ratio_median ratio_q3 shown". The ratio
# is head/base per pair, over the pairs whose base is not 0 ("null" when
# none is); shown is the sign test's verdict.
summary() {
	paste "$1" "$2" | awk -v better="$3" '
		function quartiles(v, n, out,   s, i, j, t, h) {
			for (i = 1; i <= n; i++) s[i] = v[i]
			for (i = 2; i <= n; i++)
				for (j = i; j > 1 && s[j-1] > s[j]; j--) { t = s[j]; s[j] = s[j-1]; s[j-1] = t }
			out[2] = med(s, 1, n)
			h = int(n / 2)
			out[1] = n > 1 ? med(s, 1, h) : s[1]
			out[3] = n > 1 ? med(s, n - h + 1, n) : s[1]
		}
		function med(s, lo, hi,   c) {
			c = hi - lo + 1
			return c % 2 ? s[lo + (c - 1) / 2] : (s[lo + c / 2 - 1] + s[lo + c / 2]) / 2
		}
		# signp: the two-sided sign test p-value of k wins out of n untied
		# pairs, 2 P(X >= max(k, n-k)) for X ~ Binomial(n, 1/2), at most 1.
		function signp(k, n,   i, c, tail) {
			if (n == 0) return 1
			if (k < n - k) k = n - k
			c = 1
			for (i = 0; i <= n; i++) {
				if (i >= k) tail += c
				c = c * (n - i) / (i + 1)
			}
			tail = 2 * tail / 2 ^ n
			return tail > 1 ? 1 : tail
		}
		{
			b[NR] = $1; h[NR] = $2
			if (better == "higher" ? $2 > $1 : $2 < $1) wins++
			else if ($2 != $1) losses++
			if ($1 != 0) r[++nr] = $2 / $1
		}
		END {
			quartiles(b, NR, bq); quartiles(h, NR, hq)
			if (nr > 0) {
				quartiles(r, nr, rq)
				ratio = sprintf("%.4f %.4f %.4f", rq[1], rq[2], rq[3])
			} else ratio = "null null null"
			shown = "none"
			if (signp(wins, wins + losses) <= 0.05) shown = wins > losses ? "better" : "worse"
			printf "%.6g %.6g %.6g %.6g %.6g %.6g %d %s %s\n", bq[1], bq[2], bq[3], hq[1], hq[2], hq[3], wins, ratio, shown
		}'
}

ledger="{\"base\":\"$base_sha\",\"head\":\"$head_sha\",\"nproc\":$(nproc),\"date\":\"$(date -u +%Y-%m-%dT%H:%M:%SZ)\",\"pairs\":$pairs,\"seconds\":$seconds,\"workloads\":{"
first_w=1
for w in $workloads; do
	: >"$tmp/$w.base"
	: >"$tmp/$w.head"
	for p in $(seq 1 "$pairs"); do
		if [ $((p % 2)) -eq 1 ]; then
			run "$tmp/base" "$w" "$tmp/$w.base"
			run . "$w" "$tmp/$w.head"
		else
			run . "$w" "$tmp/$w.head"
			run "$tmp/base" "$w" "$tmp/$w.base"
		fi
	done
	echo "== $w: $pairs pairs of $seconds s, base ${base_sha:0:12} vs head ${head_sha:0:12}"
	printf '%-16s %30s %30s %9s %6s %22s  %s\n' metric "base q1/median/q3" "head q1/median/q3" change wins \
		"ratio median [q1,q3]" verdict
	[ $first_w -eq 1 ] || ledger="$ledger,"
	first_w=0
	ledger="$ledger\"$w\":{"
	first_m=1
	while read -r name better; do
		grep "^$name " "$tmp/$w.base" | cut -d' ' -f2 >"$tmp/b"
		grep "^$name " "$tmp/$w.head" | cut -d' ' -f2 >"$tmp/h"
		read -r bq1 bmed bq3 hq1 hmed hq3 wins rq1 rmed rq3 shown < <(summary "$tmp/b" "$tmp/h" "$better")
		change=$(awk -v b="$bmed" -v h="$hmed" 'BEGIN { printf "%+.1f%%", b != 0 ? (h - b) / b * 100 : 0 }')
		verdict="no change shown"
		[ "$shown" = none ] || verdict="$shown shown"
		printf '%-16s %30s %30s %9s %3d/%-2d %22s  %s\n' "$name" "$bq1/$bmed/$bq3" "$hq1/$hmed/$hq3" "$change" "$wins" "$pairs" \
			"$rmed [$rq1,$rq3]" "$verdict"
		[ $first_m -eq 1 ] || ledger="$ledger,"
		first_m=0
		ledger="$ledger\"$name\":{\"base\":[$bq1,$bmed,$bq3],\"head\":[$hq1,$hmed,$hq3],\"wins\":$wins,\"ratio\":[$rq1,$rmed,$rq3],\"shown\":\"$shown\"}"
	done < <(echo "$metrics"; echo "failed_share lower")
	ledger="$ledger}"
done
echo "$ledger}}"
