#!/usr/bin/env bash
# ab_layout.sh — a same-host A/B of the benchmark across function layouts.
#
#   bash scripts/ab_layout.sh BASE WORKLOAD [CHANGE]
#   make ab-layout BASE=<rev> WORKLOAD=<workload> [CHANGE=<rev>]
#
# Checks BASE out in a temporary `git worktree` and builds the benchmark
# harness (benchmark/) for BASE and for the change (the working tree, or
# CHANGE when given; CHANGE=BASE is an A/A run that shows the host's
# spread). Each side is built at the default function layout and at
# `-ldflags=-randlayout=N` for N = 1..LAYOUTS, with the environment
# benchmark/run.sh builds with. Code placement alone can move a workload
# by several percent, so a result that holds at every layout is a result
# of the code and not of where the linker put it.
#
# Each run is 25 s, the run length BENCHMARK.json sets for the benchmark.
# The runs are interleaved pairs: round r runs one pair per layout, and
# the side that goes first alternates between pairs and between layouts.
# Any pass that reports "correct": false stops the script. For each layout
# and then over all layouts it prints the per-pair records_per_s ratios
# (change / base) and, for each end-to-end metric, both sides' medians and
# quartiles, the ratio of the medians and the pairs the change won.
#
# Settings, from the environment (make passes them through):
#   SEED     workload seed (1)
#   PAIRS    pairs per layout (3)
#   LAYOUTS  randomized layouts besides the default (3)
#   AB_DIR   where the worktree, binaries and run logs go and stay (by
#            default a new directory under ${TMPDIR:-/tmp}, removed at
#            exit)
set -euo pipefail

usage() {
	echo "usage: $0 BASE WORKLOAD [CHANGE]" >&2
	exit 2
}
[ $# -ge 2 ] && [ $# -le 3 ] || usage
base_arg=$1 workload=$2 change_arg=${3:-}
seed=${SEED:-1} pairs=${PAIRS:-3} layouts=${LAYOUTS:-3}
for v in "$seed" "$pairs" "$layouts"; do
	[[ $v =~ ^[0-9]+$ ]] || { echo "ab_layout: SEED, PAIRS and LAYOUTS must be integers" >&2; exit 2; }
done
[ "$pairs" -ge 1 ] || { echo "ab_layout: PAIRS must be at least 1" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
base_rev=$(git -C "$root" rev-parse --verify --quiet "$base_arg^{commit}") ||
	{ echo "ab_layout: BASE $base_arg is not a commit" >&2; exit 2; }
change_rev=
if [ -n "$change_arg" ]; then
	change_rev=$(git -C "$root" rev-parse --verify --quiet "$change_arg^{commit}") ||
		{ echo "ab_layout: CHANGE $change_arg is not a commit" >&2; exit 2; }
fi

# run.sh's build environment: the build cache and everything else the go
# command writes stay in .bench_build/.
cache="$root/.bench_build"
mkdir -p "$cache"
export GOCACHE="$cache/gocache" GOPATH="$cache/gopath" XDG_CONFIG_HOME="$cache/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

gover=$(go env GOVERSION)
if ! [[ $gover =~ go1\.([0-9]+) ]] || [ "${BASH_REMATCH[1]}" -lt 24 ]; then
	echo "ab_layout: -ldflags=-randlayout needs go1.24 or later; the go command is $gover" >&2
	exit 1
fi

dir=${AB_DIR:-}
if [ -z "$dir" ]; then
	dir=$(mktemp -d "${TMPDIR:-/tmp}/ab_layout.XXXXXX")
fi
mkdir -p "$dir/bin" "$dir/runs"
trees=()
cleanup() {
	for t in "${trees[@]}"; do
		git -C "$root" worktree remove --force "$t" 2>/dev/null || true
	done
	git -C "$root" worktree prune
	if [ -z "${AB_DIR:-}" ]; then
		rm -rf "$dir"
	fi
}
trap cleanup EXIT

checkout() { # rev dest
	git -C "$root" worktree add --detach --quiet "$2" "$1"
	trees+=("$2")
}
checkout "$base_rev" "$dir/base"
change_tree=$root
if [ -n "$change_rev" ]; then
	checkout "$change_rev" "$dir/change"
	change_tree=$dir/change
fi

echo "ab_layout: $workload seed $seed, 25s runs, $pairs pairs at each of $((layouts + 1)) layouts"
change_name="working tree"
[ -z "$change_rev" ] || change_name=$(git -C "$root" rev-parse --short "$change_rev")
echo "ab_layout: base $(git -C "$root" rev-parse --short "$base_rev"), change $change_name, $gover"
for side in base change; do
	tree=$dir/base
	[ "$side" = change ] && tree=$change_tree
	for n in $(seq 0 "$layouts"); do
		ld=
		[ "$n" -gt 0 ] && ld=-randlayout=$n
		go -C "$tree/benchmark" build -ldflags="$ld" -o "$dir/bin/$side-$n" .
	done
done

# results holds one line per run: layout, pair, side, then the metrics in
# the order of $metrics.
metrics="records_per_s cpu_ns_per_record pass_ms_p50 alloc_bytes_per_record max_rss_mb setup_s"
results=$dir/results
: >"$results"
run() { # side layout pair
	local log="$dir/runs/$1-$2-$3.log" last
	if ! "$dir/bin/$1-$2" --workload "$workload" --seed "$seed" --seconds 25 --trace 0 >"$log" 2>&1; then
		echo "ab_layout: the $1 harness failed at layout $2, pair $3:" >&2
		tail -n 5 "$log" >&2
		exit 1
	fi
	last=$(tail -n 1 "$log")
	if [[ $last != *'"correct":true'* ]]; then
		echo "ab_layout: the $1 side was not correct at layout $2, pair $3:" >&2
		echo "$last" >&2
		exit 1
	fi
	local row="$2 $3 $1" m v
	for m in $metrics; do
		v=$(sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p" <<<"$last")
		[ -n "$v" ] || { echo "ab_layout: no $m in $log" >&2; exit 1; }
		row="$row $v"
	done
	echo "$row" >>"$results"
	echo "  layout $2 pair $3 $1: records_per_s $(cut -d' ' -f4 <<<"$row")"
}
for p in $(seq 1 "$pairs"); do
	for n in $(seq 0 "$layouts"); do
		if [ $(((p + n) % 2)) -eq 1 ]; then
			run base "$n" "$p"
			run change "$n" "$p"
		else
			run change "$n" "$p"
			run base "$n" "$p"
		fi
	done
done

# summary prints one block for the runs whose layout matches $1 ("all"
# for every layout).
summary() {
	awk -v want="$1" -v metrics="$metrics" '
	function quart(a, n, q,   h, lo) { # a[1..n] sorted; linear interpolation
		h = (n - 1) * q + 1
		lo = int(h)
		return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	function sortn(a, n,   i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	}
	function fmt(v) { return v >= 1e5 ? sprintf("%.4g M", v / 1e6) : sprintf("%.5g", v) }
	BEGIN { nm = split(metrics, name, " ") }
	want == "all" || $1 == want {
		key = $1 " " $2
		if (!(key in seen)) { seen[key] = 1; keys[++np] = key }
		for (m = 1; m <= nm; m++) val[$3, key, m] = $(m + 3)
	}
	END {
		line = ""
		for (k = 1; k <= np; k++) {
			if (!(("base", keys[k], 1) in val) || !(("change", keys[k], 1) in val)) continue
			line = line sprintf(" %.3f", val["change", keys[k], 1] / val["base", keys[k], 1])
		}
		print "  records_per_s ratio per pair:" line
		printf "  %-24s %-32s %-32s %7s %s\n", "metric", "base median (Q1-Q3)", "change median (Q1-Q3)", "ratio", "change better"
		for (m = 1; m <= nm; m++) {
			n = 0; won = 0
			for (k = 1; k <= np; k++) {
				if (!(("base", keys[k], m) in val) || !(("change", keys[k], m) in val)) continue
				b[++n] = val["base", keys[k], m] + 0
				c[n] = val["change", keys[k], m] + 0
				if (m == 1 ? c[n] > b[n] : c[n] < b[n]) won++
			}
			sortn(b, n); sortn(c, n)
			bm = quart(b, n, 0.5); cm = quart(c, n, 0.5)
			printf "  %-24s %-32s %-32s %7.3f %d/%d\n", name[m],
				fmt(bm) " (" fmt(quart(b, n, 0.25)) "-" fmt(quart(b, n, 0.75)) ")",
				fmt(cm) " (" fmt(quart(c, n, 0.25)) "-" fmt(quart(c, n, 0.75)) ")",
				(bm > 0 ? cm / bm : 0), won, n
		}
	}' "$results"
}
for n in $(seq 0 "$layouts"); do
	if [ "$n" -eq 0 ]; then echo "layout default:"; else echo "layout -randlayout=$n:"; fi
	summary "$n"
done
if [ "$layouts" -gt 0 ]; then
	echo "all layouts:"
	summary all
fi
