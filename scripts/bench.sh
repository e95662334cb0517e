#!/bin/sh
# bench.sh [pattern] [outfile] — run the microbenchmarks with -benchmem and
# record the raw lines plus environment as JSON for trend tracking.
#
# Defaults: the hot-path, sweep-engine and datacenter benches (including the
# -exact reference lanes of the multi-rate pairs), BENCH_<date>.json.
# BENCHTIME overrides the per-bench iteration budget (default 2000x; the
# experiment-scale benches amortize fine at far fewer, e.g. BENCHTIME=50x).
#
# The per-step micro benches (MICRO_BENCHES, default the ChipStep family,
# plus the frozen-span layer benches FastForward and FrozenReadModel,
# which live in ./internal/chip and report ns/sim_s and ns/op) run in a
# separate pass over the root and ./internal/chip packages at
# MICRO_BENCHTIME (default 100000x) with MICRO_COUNT repetitions
# (default 3): they cost microseconds per op, and 2000 iterations is far
# too noisy for the few-percent gates bench_compare.sh holds them to — the
# recorder-overhead budget in particular. The recorded line is the
# minimum-ns/op repetition: on a shared box, load spikes only ever push a
# measurement up, so the minimum is the best estimate of true cost and
# keeps the few-percent gates meaningful.
#
# The fleet benches (FLEET_BENCHES, default the 64-node datacenter sweep)
# run in a third pass at FLEET_BENCHTIME (default 3x) with FLEET_COUNT
# repetitions (default 2, min wins as above): one op simulates a 64-node
# sweep and costs hundreds of milliseconds, so the main pass budget
# would take minutes per lane. The default main pattern excludes them by
# anchoring the DatacenterSweep alternatives; the fleet pass precedes the
# main pass, so a custom pattern that re-matches them keeps the fleet-pass
# run (first occurrence wins, as with the micro pass).
#
# The fleet-scale benches (FLEETSCALE_BENCHES, default the sharded
# BenchmarkFleetAdvance{256,1024,4096} ladder, its telemetry-plane twin
# BenchmarkFleetAdvance256Timeseries, plus BenchmarkWebsearchQoS)
# run in their own pass at FLEETSCALE_BENCHTIME (default 1x) with
# FLEETSCALE_COUNT repetitions (default 2, min wins): one op advances
# thousands of request-serving nodes, so even a handful of iterations
# costs seconds. The FleetAdvance lanes report ns/sim_s_node (wall-clock
# nanoseconds per simulated second per node), the figure
# bench_compare.sh's FLEET_SCALING_MAX gate holds near-flat from 256 to
# 4096 nodes.
#
# The sampled-lane benches (SAMPLED_BENCHES, default the two long-horizon
# macro/sampled pairs) run in a fourth pass at SAMPLED_BENCHTIME (default
# 1x) with SAMPLED_COUNT repetitions (default 3, min wins): one macro-lane
# op covers two minutes of simulated steady state per sweep point and
# costs seconds, and the sampled twins also run an untimed macro reference
# to report their sampled_err_rel headline-error metric.
# bench_compare.sh derives each pair's sampled-vs-macro speedup and gates
# it with SAMPLED_SPEEDUP_MIN / SAMPLED_ERR_MAX. The default main pattern
# anchors its Sweep alternative so these lanes never leak into the
# 2000x-budget pass.
#
# Cluster-scale benchmark lines that report a sim_s/op metric (simulated
# seconds covered per op) gain a derived "ns/sim_s" field in the JSON:
# wall-clock nanoseconds per simulated second, the figure that stays
# comparable when a sweep's fleet size or grid changes while raw ns/op
# does not.
set -eu

pattern="${1:-BenchmarkChipStep|BenchmarkSweep(Serial|Parallel)|BenchmarkDatacenterSweep(Serial|SerialExact)?\$|BenchmarkDatacenterSweepParallel\$}"
out="${2:-BENCH_$(date +%Y%m%d).json}"
benchtime="${BENCHTIME:-2000x}"
micro_pattern="${MICRO_BENCHES:-BenchmarkChipStep|BenchmarkFastForward|BenchmarkFrozenReadModel}"
micro_benchtime="${MICRO_BENCHTIME:-100000x}"
micro_count="${MICRO_COUNT:-3}"
fleet_pattern="${FLEET_BENCHES:-BenchmarkDatacenterSweepParallel64}"
fleet_benchtime="${FLEET_BENCHTIME:-3x}"
fleet_count="${FLEET_COUNT:-2}"
fleetscale_pattern="${FLEETSCALE_BENCHES:-BenchmarkFleetAdvance(256|1024|4096)\$|BenchmarkFleetAdvance256Timeseries\$|BenchmarkWebsearchQoS\$}"
fleetscale_benchtime="${FLEETSCALE_BENCHTIME:-1x}"
fleetscale_count="${FLEETSCALE_COUNT:-2}"
sampled_pattern="${SAMPLED_BENCHES:-Benchmark(DatacenterSweep|Sweep)(LongHorizon|Sampled)\$}"
sampled_benchtime="${SAMPLED_BENCHTIME:-1x}"
sampled_count="${SAMPLED_COUNT:-3}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$micro_pattern" -benchmem -benchtime "$micro_benchtime" -count "$micro_count" . ./internal/chip | tee "$tmp"
go test -run '^$' -bench "$fleet_pattern" -benchmem -benchtime "$fleet_benchtime" -count "$fleet_count" . | tee -a "$tmp"
go test -run '^$' -bench "$fleetscale_pattern" -benchmem -benchtime "$fleetscale_benchtime" -count "$fleetscale_count" . | tee -a "$tmp"
go test -run '^$' -bench "$sampled_pattern" -benchmem -benchtime "$sampled_benchtime" -count "$sampled_count" . | tee -a "$tmp"
go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" . | tee -a "$tmp"

# The worker parallelism the benchmarks actually ran at: Go stamps
# GOMAXPROCS as the -N suffix of every benchmark name (omitted when it is
# 1), so read it from the output rather than guessing from the environment.
gomaxprocs="$(grep -m1 '^Benchmark' "$tmp" | sed -n 's/^Benchmark[^ 	]*-\([0-9][0-9]*\)[ 	].*/\1/p')"
if [ -z "$gomaxprocs" ]; then
	if grep -q '^Benchmark' "$tmp"; then gomaxprocs=1; else gomaxprocs=0; fi
fi

{
	printf '{\n'
	printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go version | sed 's/"/\\"/g')"
	printf '  "cpus": %s,\n' "$(nproc 2>/dev/null || echo 0)"
	printf '  "gomaxprocs": %s,\n' "$gomaxprocs"
	printf '  "pattern": "%s",\n' "$pattern"
	printf '  "benchtime": "%s",\n' "$benchtime"
	printf '  "micro_benchtime": "%s",\n' "$micro_benchtime"
	printf '  "fleet_benchtime": "%s",\n' "$fleet_benchtime"
	printf '  "results": [\n'
	grep '^Benchmark' "$tmp" | tr '\t' ' ' | tr -s ' ' | sed 's/"/\\"/g' | awk '
		{
			# Minimum ns/op wins across repetitions and passes (load
			# spikes only inflate a run, never deflate it); output keeps
			# first-seen order, so the micro and fleet passes preceding
			# the main pass also decide ordering for overlapping names.
			split($0, f, " ")
			name = f[1]
			ns = ""; sims = ""
			for (i = 2; i < NF; i++) {
				if (f[i+1] == "ns/op") ns = f[i]
				if (f[i+1] == "sim_s/op") sims = f[i]
			}
			line = $0
			if (ns != "" && sims != "" && sims + 0 > 0)
				line = line sprintf(" %.0f ns/sim_s", ns / sims)
			if (!(name in best)) {
				order[++n] = name
				best[name] = line
				bestns[name] = ns
			} else if (ns != "" && ns + 0 < bestns[name] + 0) {
				best[name] = line
				bestns[name] = ns
			}
		}
		END {
			for (i = 1; i <= n; i++) {
				comma = (i < n) ? "," : ""
				printf "    \"%s\"%s\n", best[order[i]], comma
			}
		}'
	printf '  ]\n'
	printf '}\n'
} > "$out"

echo "wrote $out"
