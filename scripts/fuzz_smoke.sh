#!/usr/bin/env bash
# fuzz_smoke.sh — a coverage-guided fuzz burst over every native fuzz target.
#
# Lists the Fuzz* targets of every package with `go test -list`, then
# fuzzes them one at a time, 30 s each, with 5 s to minimize a failing
# input. Stops at the first failure and names the target; the failing input
# lands in the package's testdata/fuzz/<target>/ and replays as a seed on
# every later `go test`. Run from the repo root: `make fuzz-smoke`.
set -euo pipefail

list=$(go test -list '^Fuzz' ./...)
targets=$(awk '
	/^Fuzz/ { names = names " " $1; next }
	/^ok/ { n = split(names, t, " "); for (i = 1; i <= n; i++) print $2, t[i]; names = "" }
' <<<"$list")
if [ -z "$targets" ]; then
	echo "fuzz-smoke: no fuzz targets found" >&2
	exit 1
fi
count=$(wc -l <<<"$targets")
echo "fuzz-smoke: $count targets"
while read -r pkg target; do
	echo "fuzz-smoke: $target ($pkg)"
	if ! go test "$pkg" -run='^$' -fuzz="^$target\$" -fuzztime=30s -fuzzminimizetime=5s; then
		echo "fuzz-smoke: FAIL: $target in $pkg" >&2
		exit 1
	fi
done <<<"$targets"
echo "fuzz-smoke: all $count targets passed"
