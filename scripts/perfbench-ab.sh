#!/usr/bin/env bash
# Same-host A/B of the repository benchmark (perfbench, BENCHMARK.json).
#
#   bash scripts/perfbench-ab.sh <base-rev> [workload] [pairs] [seed]
#   make bench-ab BASE=<rev> WORKLOAD=suite-cold PAIRS=10 [SEED=21]
#
# Builds <base-rev> from local git history in a worktree under
# .bench_build/ab/, then runs `perfbench/run.sh --trace 0` on the base and
# on this working tree (uncommitted changes included) PAIRS times, each
# run as long as BENCHMARK.json's run_seconds. Pair i runs seed SEED+i
# (SEED defaults to 21) on both sides, and the side that runs first alternates
# pair by pair, so drift on a shared host falls on both sides alike. It
# prints every run's end-to-end metrics with the host's steal share during
# the run, then per metric: both medians, both quartiles, and how many
# pairs the working tree won (by the metric's "better" direction in
# BENCHMARK.json). Raw runs are kept in .bench_build/ab/runs.tsv.
#
# Run it from the repository root, with nothing else running on the host.
set -euo pipefail

base=${1:?usage: perfbench-ab.sh <base-rev> [workload] [pairs] [seed]}
workload=${2:-suite-cold}
pairs=${3:-10}
seed0=${4:-21}

root=$(pwd)
if [[ ! -f "$root/BENCHMARK.json" || ! -f "$root/perfbench/run.sh" ]]; then
	echo "perfbench-ab: run from the repository root" >&2
	exit 2
fi
secs=$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
if [[ -z "$secs" ]]; then
	echo "perfbench-ab: BENCHMARK.json has no run_seconds" >&2
	exit 2
fi
rev=$(git rev-parse --verify "$base^{commit}")
out="$root/.bench_build/ab"
wt="$out/base"
mkdir -p "$out"
git worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
git worktree prune
git worktree add --quiet --detach "$wt" "$rev"
trap 'git -C "$root" worktree remove --force "$wt" 2>/dev/null || true' EXIT

runs="$out/runs.tsv"
: >"$runs"

# run <side> <dir> <pair> <seed> <order>: one perfbench run, appended to
# runs.tsv as "pair seed side order key value" lines.
run() {
	local side=$1 dir=$2 pair=$3 seed=$4 order=$5 log="$out/run.log" json steal
	if ! json=$(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$secs" --trace 0 2>"$log" | tail -n 1); then
		echo "perfbench-ab: $side run failed (pair $pair, seed $seed):" >&2
		tail -n 20 "$log" >&2
		exit 1
	fi
	steal=$(sed -n 's/.*host steal during the measured phase: \([0-9.]*\)%.*/\1/p' "$log" | tail -n 1)
	{
		printf '%s\t%s\t%s\t%s\tsteal_pct\t%s\n' "$pair" "$seed" "$side" "$order" "${steal:-NA}"
		for k in attempted failed; do
			printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$pair" "$seed" "$side" "$order" "$k" \
				"$(printf '%s' "$json" | sed -n "s/.*\"$k\":\([0-9]*\).*/\1/p")"
		done
		printf '%s' "$json" | grep -o '"[a-z0-9_.]*":{"value":[-0-9.eE+]*' |
			sed 's/^"\([^"]*\)":{"value":\(.*\)$/\1\t\2/' |
			while IFS=$'\t' read -r k v; do
				printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$pair" "$seed" "$side" "$order" "$k" "$v"
			done
	} >>"$runs"
}

echo "perfbench-ab: base $base ($rev) vs working tree, workload $workload, $pairs pairs x ${secs}s, seeds $seed0.." >&2
for ((p = 0; p < pairs; p++)); do
	seed=$((seed0 + p))
	if ((p % 2 == 0)); then
		run base "$wt" "$p" "$seed" 1
		run head "$root" "$p" "$seed" 2
	else
		run head "$root" "$p" "$seed" 1
		run base "$wt" "$p" "$seed" 2
	fi
	echo "perfbench-ab: pair $((p + 1))/$pairs done" >&2
done

# Metric directions from BENCHMARK.json: name -> lower|higher.
dirs=$(awk -F'"' '/"name":/ {n = $4} /"better":/ {print n "\t" $4}' "$root/BENCHMARK.json")

awk -F'\t' -v dirs="$dirs" '
function sortv(a, n,   i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
# q returns the p-quantile of sorted a[1..n] (linear interpolation).
function q(a, n, p,   h, lo) {
	h = (n - 1) * p + 1; lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
BEGIN {
	m = split(dirs, lines, "\n")
	for (i = 1; i <= m; i++) { split(lines[i], kv, "\t"); better[kv[1]] = kv[2] }
}
{
	v[$1, $3, $5] = $6; seed[$1] = $2; first[$1, $3] = $4
	if ($1 + 1 > np) np = $1 + 1
	if (!($5 in seen)) { seen[$5] = 1; keys[++nk] = $5 }
}
END {
	printf "%-4s %-6s %-5s %-5s", "pair", "seed", "side", "first"
	for (i = 1; i <= nk; i++) printf " %16s", keys[i]
	printf "\n"
	for (p = 0; p < np; p++)
		for (s = 1; s <= 2; s++) {
			side = s == 1 ? "base" : "head"
			printf "%-4d %-6s %-5s %-5s", p + 1, seed[p], side, first[p, side] == 1 ? "yes" : "no"
			for (i = 1; i <= nk; i++) {
				x = v[p, side, keys[i]]
				printf " %16s", x ~ /^[-+0-9.eE]+$/ ? sprintf("%.6g", x) : x
			}
			printf "\n"
		}
	printf "\n%-18s %-6s %12s %25s %12s %25s %8s %6s\n", "metric", "better", "base median", "base [q1, q3]", "head median", "head [q1, q3]", "change", "wins"
	for (i = 1; i <= nk; i++) {
		k = keys[i]
		if (!(k in better)) continue
		nb = nh = wins = 0
		for (p = 0; p < np; p++) {
			b[++nb] = v[p, "base", k]; h[++nh] = v[p, "head", k]
			if (better[k] == "higher" ? v[p, "head", k] > v[p, "base", k] : v[p, "head", k] < v[p, "base", k]) wins++
		}
		sortv(b, nb); sortv(h, nh)
		mb = q(b, nb, 0.5); mh = q(h, nh, 0.5)
		printf "%-18s %-6s %12.4g %25s %12.4g %25s %+7.1f%% %3d/%d\n", k, better[k],
			mb, sprintf("[%.4g, %.4g]", q(b, nb, 0.25), q(b, nb, 0.75)),
			mh, sprintf("[%.4g, %.4g]", q(h, nh, 0.25), q(h, nh, 0.75)),
			mb != 0 ? 100 * (mh / mb - 1) : 0, wins, np
	}
}' "$runs"
