#!/usr/bin/env bash
# Records BENCH_perf.json: every perfbench workload (BENCHMARK.json) over
# seeds 1-5, once at GOMAXPROCS=1 and once at GOMAXPROCS=2, reduced to the
# median and interquartile range of each end-to-end metric, with each seed's
# own value beside them (by_seed, which bench_gate.sh reads). Run it from the
# repository root on an otherwise idle machine:
#
#   bash bench_perf.sh
#
# A run that fails perfbench's correctness check stops the recording.
set -euo pipefail

seconds=20 # measured seconds per run; every record uses the same length
seeds=(1 2 3 4 5)
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

for w in $workloads; do
	for procs in 1 2; do
		for seed in "${seeds[@]}"; do
			echo "bench_perf: $w GOMAXPROCS=$procs seed $seed" >&2
			GOMAXPROCS=$procs bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
				tail -n 1 | jq -c --arg w "$w" --argjson p "$procs" --argjson s "$seed" '{workload: $w, gomaxprocs: $p, seed: $s} + .' >>"$runs"
		done
	done
done

jq -s \
	--arg go "$(go env GOVERSION)" \
	--argjson cpus "$(nproc)" \
	--argjson seconds "$seconds" \
	--argjson seeds "$(printf '%s\n' "${seeds[@]}" | jq -s -c .)" '
	# Linear-interpolated quantile of a numeric array.
	def quantile($q): sort as $v | ((($v | length) - 1) * $q) as $x | ($x | floor) as $i
		| if $i + 1 < ($v | length) then $v[$i] + ($v[$i + 1] - $v[$i]) * ($x - $i) else $v[$i] end;
	{
		go_version: $go, num_cpu: $cpus, seeds: $seeds, seconds: $seconds,
		runs: [group_by([.workload, .gomaxprocs])[] | . as $rs | {
			workload: $rs[0].workload,
			gomaxprocs: $rs[0].gomaxprocs,
			correct: all($rs[]; .correct),
			attempted: (map(.attempted) | add),
			failed: (map(.failed) | add),
			metrics: ($rs[0].metrics | with_entries(.key as $m | .value |= {
				unit: .unit,
				median: ([$rs[].metrics[$m].value] | quantile(0.5)),
				iqr: (([$rs[].metrics[$m].value] | quantile(0.75)) - ([$rs[].metrics[$m].value] | quantile(0.25))),
				by_seed: ($rs | map({key: (.seed | tostring), value: .metrics[$m].value}) | from_entries)
			}))
		}]
	}' "$runs" >BENCH_perf.json
echo "bench_perf: wrote BENCH_perf.json" >&2
