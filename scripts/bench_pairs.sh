#!/usr/bin/env bash
# Paired benchmark runs, parent commit against the working tree — the
# table a performance claim rests on (choosing-metrics guide, section 8).
#
#   scripts/bench_pairs.sh <parent-ref> [pairs] [workload...]
#
# Builds bench/ of <parent-ref> (its committed files, through `git
# archive`) and of the working tree, then runs each workload `pairs`
# times (default 10) on both, alternating which side goes first, at the
# settings BENCHMARK.json fixes: its run_seconds, --trace 0. The seed is
# BENCH_SEED (default 20261003: pick one nobody developed against).
# Prints, per workload and end-to-end metric: both medians, both
# inter-quartile ranges, the ratio of the medians, the pairs the change
# won (ties count for neither side) and whether every change run read
# better than every parent run.
#
# Everything — sources, binaries, the Go build cache, run output, WAL
# directories — lives under .bench_build/pairs/, which git ignores;
# nothing is fetched from a network.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,19p' "$0" >&2; exit 2; }
ref=$1
pairs=${2:-10}
shift; [ $# -eq 0 ] || shift
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

field() { sed -n "s/.*\"$1\": *\([0-9][0-9]*\).*/\1/p" BENCHMARK.json | head -1; }
seconds=$(field run_seconds)
seed=${BENCH_SEED:-20261003}
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	mapfile -t workloads < <(awk '/"workloads"/ {w=1} /"end_to_end"/ {w=0} w' BENCHMARK.json |
		sed -n 's/.*"name": *"\([^"]*\)".*/\1/p')
fi
# name:better for each end-to-end metric, in BENCHMARK.json's order.
mapfile -t metrics < <(awk '/"end_to_end"/ {e=1} /"per_layer"/ {e=0} e' BENCHMARK.json |
	awk -F'"' '/"name"/ {n=$4} /"better"/ {print n ":" $4}')

dir="$root/.bench_build/pairs"
export GOCACHE="$root/.bench_build/gocache" GOPROXY=off GOTOOLCHAIN=local
sha=$(git rev-parse --short "$ref^{commit}")
rm -rf "$dir/parent-src" "$dir/run"
mkdir -p "$dir/parent-src" "$dir/run" "$dir/out"
git archive "$ref" | tar -x -C "$dir/parent-src"
(cd "$dir/parent-src" && go build -o "$dir/parent.bench" ./bench)
go build -o "$dir/change.bench" ./bench

# one <side> <workload> <pair>: the run's JSON line lands in out/.
one() {
	local out="$dir/out/$2.$1.$3"
	if ! (cd "$dir/run" && "$dir/$1.bench" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0) >"$out.log" 2>&1; then
		echo "bench_pairs: $1 run $3 of $2 failed, see $out.log" >&2
	fi
	tail -n 1 "$out.log" >"$out.json"
}

# value <file> <metric>: one number out of a run's JSON line.
value() { grep -o "\"$2\":{\"value\":[^,}]*" "$1" | sed 's/.*://'; }

# stats: numbers on stdin, "median q1 q3 min max" out; the quartiles by
# nearest rank, the median of an even count the mean of the middle two.
stats() {
	sort -g | awk '{v[NR]=$1} END {
		if (NR == 0) { print "nan nan nan nan nan"; exit }
		printf "%s ", (v[int((NR+1)/2)] + v[int(NR/2)+1]) / 2
		q(0.25); q(0.75); printf "%s %s\n", v[1], v[NR] }
		function q(p,  i) { i = int(p*NR + 0.999999); if (i < 1) i = 1; printf "%s ", v[i] }'
}

for wl in "${workloads[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then order="parent change"; else order="change parent"; fi
		for side in $order; do one "$side" "$wl" "$i"; done
		printf '\r%s: pair %d/%d' "$wl" "$i" "$pairs" >&2
	done
	printf '\r' >&2
	clean=$(for ((i = 1; i <= pairs; i++)); do cat "$dir/out/$wl.parent.$i.json" "$dir/out/$wl.change.$i.json"; done |
		grep -c '"correct":true,"attempted":[0-9]*,"failed":0,' || true)
	echo "$wl — $pairs pairs, parent $sha vs working tree, seed $seed, ${seconds} s, --trace 0; $clean of $((2 * pairs)) runs passed their output checks with 0 failed ops"
	printf '  %-18s %-6s %28s %28s %8s %6s  %s\n' metric better "parent median [q1..q3]" "change median [q1..q3]" ratio won "every change run better"
	for m in "${metrics[@]}"; do
		name=${m%%:*} better=${m##*:}
		p=() c=() won=0
		for ((i = 1; i <= pairs; i++)); do
			p+=("$(value "$dir/out/$wl.parent.$i.json" "$name")")
			c+=("$(value "$dir/out/$wl.change.$i.json" "$name")")
			won=$((won + $(awk -v p="${p[-1]}" -v c="${c[-1]}" -v b="$better" \
				'BEGIN { print ((b == "higher" && c > p) || (b == "lower" && c < p)) ? 1 : 0 }')))
		done
		read -r pm pq1 pq3 pmin pmax < <(printf '%s\n' "${p[@]}" | stats)
		read -r cm cq1 cq3 cmin cmax < <(printf '%s\n' "${c[@]}" | stats)
		awk -v n="$name" -v b="$better" -v pm="$pm" -v pq1="$pq1" -v pq3="$pq3" -v pmin="$pmin" -v pmax="$pmax" \
			-v cm="$cm" -v cq1="$cq1" -v cq3="$cq3" -v cmin="$cmin" -v cmax="$cmax" -v won="$won" -v pairs="$pairs" 'BEGIN {
			all = (b == "higher") ? (cmin > pmax) : (cmax < pmin)
			printf "  %-18s %-6s %28s %28s %7.3fx %3d/%-2d  %s\n", n, b,
				sprintf("%.5g [%.5g..%.5g]", pm, pq1, pq3), sprintf("%.5g [%.5g..%.5g]", cm, cq1, cq3),
				(pm != 0) ? cm/pm : 0, won, pairs, all ? "yes" : "no" }'
	done
done
