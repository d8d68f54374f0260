#!/usr/bin/env bash
# Reports the code that no run executes.
#
# Builds every cmd/ and examples/ binary with coverage of all fluidfaas
# packages, runs the CI smoke invocations, then runs the test suite with
# the same coverage. It prints, for the runs alone and for the runs plus
# the tests, the functions and the blocks that never executed. A
# function or block listed under "runs" but not under "runs and tests"
# is reached only by a test.
#
#   scripts/traffic-cover.sh           # CLI and example runs, then go test
#   scripts/traffic-cover.sh --bench   # also every bench/ workload
#
# With --bench the benchmark is built into a temporary directory and
# runs all four workloads, untraced and traced, for --seconds 3; its
# reports go to the temporary directory, so nothing is written under
# bench/. The -serve introspection server is left to the tests
# (TestSimExportsAndIntrospection): a killed process writes no counters.
set -euo pipefail

bench=0
case "${1:-}" in
--bench) bench=1 ;;
"") ;;
*)
	echo "usage: $0 [--bench]" >&2
	exit 2
	;;
esac

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/bin" "$work/runs" "$work/tests" "$work/out"
cd "$root"

cover=(-cover -coverpkg=fluidfaas/...)
for d in cmd/* examples/*; do
	go build "${cover[@]}" -o "$work/bin/$(basename "$d")" "./$d"
done
b="$work/bin"

# runs a binary under coverage with stdout discarded; fails unless it
# exits with the given status.
want() {
	local code=$1
	shift
	local got=0
	GOCOVERDIR="$work/runs" "$@" > /dev/null 2>> "$work/stderr.log" || got=$?
	if [ "$got" -ne "$code" ]; then
		echo "$*: exit $got, want $code" >&2
		exit 1
	fi
}

# The CI smoke invocations.
for e in quickstart llmstages custommodel imagepipeline tracereplay; do
	want 0 "$b/$e"
done
want 0 "$b/fluidfaas-bench" -exp overload -duration 45 -loads 3,32
want 0 "$b/fluidfaas-bench" -exp all -duration 60
want 0 "$b/fluidfaas-bench" -exp analytics -duration 45
want 0 "$b/fluidfaas-bench" -exp reconfig
want 0 "$b/fluidfaas-sim" -duration 30 -trace-out "$work/out/t.json" -metrics-out "$work/out/m.prom" \
	-util-out "$work/out/u.json" -decisions-out "$work/out/d.json"
want 0 "$b/fluidfaas-sim" -duration 30 -events 5 -events-kind launch,release
want 2 "$b/fluidfaas-bench" -exp planner
want 2 "$b/fluidfaas-bench" -exp overload -loads NaN
want 2 "$b/fluidfaas-sim" -events -3
want 2 "$b/fluidfaas-dag" -top -2
want 2 "$b/tracereplay" -azure -minutes -1
# The two CLIs no CI step runs on valid input.
want 0 "$b/fluidfaas-dag"
want 0 "$b/fluidfaas-trace" -generate medium -duration 60 -out "$work/out/trace.csv"
want 0 "$b/fluidfaas-trace" -inspect "$work/out/trace.csv"

if [ "$bench" -eq 1 ]; then
	(
		cd bench
		export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
		go build "${cover[@]}" -o "$b/bench" .
		for w in paper scale observed chaos; do
			for t in 0 1; do
				want 0 "$b/bench" -workload "$w" -seconds 3 -trace "$t" -out "$work/out/bench"
			done
		done
	)
fi

go test "${cover[@]}" ./... -args -test.gocoverdir="$work/tests" > /dev/null

# The benchmark's own package is not this module's and is left out.
for p in runs all; do
	dirs="$work/runs"
	[ "$p" = all ] && dirs="$work/runs,$work/tests"
	go tool covdata textfmt -i="$dirs" -o "$work/$p.raw"
	grep -v '^fluidfaas/bench/' "$work/$p.raw" > "$work/$p.txt"
done

# never prints the functions, then the blocks, that profile $1 never
# executed. A block's counts are summed over every binary that has it.
never() {
	local label=$1 prof=$2
	echo "== functions the $label never execute"
	go tool cover -func="$prof" | awk '$NF == "0.0%" { print $1, $2 }'
	echo "== blocks the $label never execute (file:start,end statements)"
	awk 'NR > 1 { n[$1] += $3; s[$1] = $2 } END { for (k in n) if (n[k] == 0) print k, s[k] }' "$prof" |
		sed 's|^fluidfaas/||' | sort -t: -k1,1 -k2,2n
}
never "runs" "$work/runs.txt"
never "runs and tests" "$work/all.txt"
