#!/usr/bin/env bash
# Per-seed allocation gate: runs every perfbench workload (BENCHMARK.json) on
# seed 1 at GOMAXPROCS=2 for a few seconds and fails when its allocs_per_op or
# live_heap_mb exceeds seed 1's value in BENCH_perf.json (by_seed, recorded by
# bench_perf.sh) by more than that metric's bound in BENCHMARK.json, or when
# the run fails its correctness check. Run it from the repository root:
#
#   bash bench_gate.sh [seconds]   # default 5
set -euo pipefail

seconds=${1:-5}
procs=2
status=0
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	run=$(GOMAXPROCS=$procs bash perfbench/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 0 | tail -n 1)
	if ! jq -e '.correct and .failed == 0' <<<"$run" >/dev/null; then
		echo "bench_gate: $w failed its run: $run" >&2
		status=1
		continue
	fi
	for m in allocs_per_op live_heap_mb; do
		line=$(jq -n -r --arg w "$w" --arg m "$m" --argjson p "$procs" --argjson run "$run" \
			--slurpfile rec BENCH_perf.json --slurpfile bench BENCHMARK.json '
			($rec[0].runs[] | select(.workload == $w and .gomaxprocs == $p) | .metrics[$m].by_seed["1"]) as $want
			| ($bench[0].end_to_end[] | select(.name == $m) | .bound) as $bound
			| $run.metrics[$m].value as $got
			| "\(if $got <= $want * (1 + $bound) then "ok  " else "FAIL" end) \($w) \($m) \($got) (seed 1 recorded \($want), bound +\($bound * 100)%)"') || line="FAIL $w $m: no value"
		echo "$line"
		[[ $line == ok* ]] || status=1
	done
done
exit $status
