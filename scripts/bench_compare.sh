#!/bin/sh
# bench_compare.sh [old.json new.json] — diff two bench.sh recordings and
# flag ns/op regressions beyond the threshold on the guarded benchmarks
# (chip-step and sweep lanes). With no arguments, compares the two most
# recent BENCH_*.json in the repo root; when only one exists (a fresh run
# on the same date as the committed baseline), its committed version from
# git HEAD serves as the old side. The report also prints the wall-clock
# speedup of each multi-rate benchmark pair (BenchmarkX vs BenchmarkXExact)
# found in the new recording.
#
# The new recording is also checked against the flight recorder's own
# budget: BenchmarkChipStepRecorded must stay within RECORDER_THRESHOLD_PCT
# of BenchmarkChipStep ns/op and keep 0 allocs/op. The telemetry
# plane carries the same shape of gate: BenchmarkChipStepTimeseries (the
# recorder plus multi-resolution series and per-tick attribution) must
# stay within TSDB_THRESHOLD_PCT of BenchmarkChipStep ns/op and keep 0
# allocs/op. Its default budget is wider than the recorder's: the pair
# measures +5-7% even on a clean baseline build, and each side swings
# ~8% run to run, so a 3% budget flags healthy recordings — the alloc
# gate (0 allocs/op) is the sharp edge, the percentage is a backstop.
#
# The sweep lanes carry an absolute allocation budget: arena pooling keeps
# the Sweep and DatacenterSweep families' steady-state footprint small, and
# SWEEP_ALLOC_BUDGET / SWEEP_BYTES_BUDGET are hard ceilings (allocs/op,
# B/op) that catch a pooling regression — a driver forgetting to release,
# or a Reset path that reallocates — long before the ns/op gate notices.
# The 64-node fleet lane (…Parallel64) gets its own FLEET_ALLOC_BUDGET /
# FLEET_BYTES_BUDGET ceilings: a 64-node sweep's steady state is an order
# of magnitude above the 4-node lanes, so holding both families to one
# number would either mask fleet regressions or flag healthy fleet runs.
# The fleet lane is likewise exempt from the percentage regression gate —
# it runs at a handful of iterations and swings far more than 10% run to
# run; the fleet budgets are its gates.
#
# The fleet-scale lanes (BenchmarkFleetAdvance{256,1024,4096}) carry a
# scaling gate: the 4096-node per-node advance cost (the ns/sim_s_node
# metric the benchmarks report) must stay within FLEET_SCALING_MAX x the
# 256-node cost (default 1.5) — sharded execution is supposed to make
# per-node cost near-flat in fleet size. The gate is enforced only when
# the recording ran at gomaxprocs >= 4 (the lanes run at single-digit
# iterations and a 1-CPU box swings too much to gate hard; the ratio
# still prints as advisory). At gomaxprocs 1 the shard fan-out runs
# serial and the FleetAdvance lanes must instead be allocation-free:
# pooled arenas and pre-sized run queues leave nothing per epoch, so any
# allocs/op is a pooling regression. The fleet-scale lanes are exempt
# from the percentage regression gate for the same few-iteration reason
# as the 64-node lane.
#
# The sampled lane carries its own twin gates: each long-horizon pair
# (BenchmarkXSampled vs BenchmarkXLongHorizon in the new recording) must
# show sampled >= SAMPLED_SPEEDUP_MIN x macro (default 10: the win is
# single-threaded and algorithmic — fast-forwarded spans vs tick-bound
# macro leaps — so it does not scale with gomaxprocs), and each sampled
# bench's sampled_err_rel metric (its headline vs its own untimed macro
# reference) must stay within SAMPLED_ERR_MAX (default 0.01). The
# long-horizon lanes run at single-digit iteration counts, so like the
# fleet lanes they are exempt from the percentage regression gate and
# from the sweep allocation budget; the speedup floor and error ceiling
# are their gates.
#
# Exit status: 0 clean, 1 regression found, 2 usage/input error.
#
# Environment:
#   THRESHOLD_PCT           regression threshold in percent (default 10)
#   GUARD_RE                awk regex of benchmark names to guard
#                           (default ChipStep|Sweep; fleet Parallel64
#                           lanes are always exempt, see above)
#   RECORDER_THRESHOLD_PCT  instrumented-vs-plain step overhead budget in
#                           percent (default 3)
#   TSDB_THRESHOLD_PCT      telemetry-plane (series + attribution) step
#                           overhead budget in percent (default 10: the
#                           pair sits at +5-7% with ~8% run-to-run noise
#                           on the reference box; see above)
#   SWEEP_ALLOC_BUDGET      allocs/op ceiling on the Sweep/DatacenterSweep
#                           families (default 4500, ~2x the pooled steady
#                           state; the pre-arena figure was ~82000)
#   SWEEP_BYTES_BUDGET      B/op ceiling on the same families (default
#                           250000, ~2x pooled; pre-arena mesh was ~3.6 MB)
#   FLEET_ALLOC_BUDGET      allocs/op ceiling on the 64-node fleet lane
#                           (default 40000, ~2x its pooled steady state)
#   FLEET_BYTES_BUDGET      B/op ceiling on the fleet lane (default
#                           2000000, ~2.5x pooled steady state)
#   FLEET_SCALING_MAX       ceiling on FleetAdvance4096's ns/sim_s_node
#                           relative to FleetAdvance256's (default 1.5;
#                           enforced at gomaxprocs >= 4, advisory below)
#   SAMPLED_SPEEDUP_MIN     sampled-vs-macro floor on the long-horizon
#                           pairs (default 10)
#   SAMPLED_ERR_MAX         ceiling on each sampled bench's
#                           sampled_err_rel headline error (default 0.01)
set -eu

threshold="${THRESHOLD_PCT:-10}"
guard="${GUARD_RE:-ChipStep|Sweep}"
rthreshold="${RECORDER_THRESHOLD_PCT:-3}"
tthreshold="${TSDB_THRESHOLD_PCT:-10}"
abudget="${SWEEP_ALLOC_BUDGET:-4500}"
bbudget="${SWEEP_BYTES_BUDGET:-250000}"
fabudget="${FLEET_ALLOC_BUDGET:-40000}"
fbbudget="${FLEET_BYTES_BUDGET:-2000000}"
smin="${SAMPLED_SPEEDUP_MIN:-10}"
emax="${SAMPLED_ERR_MAX:-0.01}"
fsmax="${FLEET_SCALING_MAX:-1.5}"

baseline_tmp=""
cleanup() { [ -z "$baseline_tmp" ] || rm -f "$baseline_tmp"; }
trap cleanup EXIT

if [ $# -ge 2 ]; then
	old="$1"
	new="$2"
else
	set -- $(ls BENCH_*.json 2>/dev/null | sort | tail -2)
	if [ $# -eq 1 ]; then
		# Same-date rerun: the lone file shadows the committed baseline.
		new="$1"
		baseline_tmp="$(mktemp)"
		if git show "HEAD:$new" > "$baseline_tmp" 2>/dev/null; then
			old="$baseline_tmp"
			echo "bench_compare.sh: using committed HEAD:$new as the old side"
		else
			echo "bench_compare.sh: need two BENCH_*.json files (run 'make bench' twice)" >&2
			exit 2
		fi
	elif [ $# -lt 1 ]; then
		echo "bench_compare.sh: need two BENCH_*.json files (run 'make bench' twice)" >&2
		exit 2
	else
		old="$1"
		new="$2"
	fi
fi
[ -r "$old" ] && [ -r "$new" ] || { echo "bench_compare.sh: cannot read $old / $new" >&2; exit 2; }

# The fleet gates depend on the parallelism the new recording actually
# ran at (bench.sh stamps gomaxprocs into the JSON header).
gmp="$(sed -n 's/^[ \t]*"gomaxprocs":[ \t]*\([0-9][0-9]*\).*/\1/p' "$new" | head -1)"
[ -n "$gmp" ] || gmp=1

echo "comparing $old (old) -> $new (new), threshold ${threshold}% on /$guard/"

awk -v threshold="$threshold" -v guard="$guard" -v rthreshold="$rthreshold" \
	-v tthreshold="$tthreshold" \
	-v abudget="$abudget" -v bbudget="$bbudget" \
	-v fabudget="$fabudget" -v fbbudget="$fbbudget" \
	-v gmp="$gmp" \
	-v smin="$smin" -v emax="$emax" -v fsmax="$fsmax" '
	/"Benchmark/ {
		line = $0
		gsub(/^[ \t]*"/, "", line)
		gsub(/",?[ \t]*$/, "", line)
		n = split(line, f, " ")
		name = f[1]
		sub(/-[0-9]+$/, "", name) # strip the -GOMAXPROCS suffix
		v = ""
		a = ""
		bb = ""
		e = ""
		nsn = ""
		for (i = 2; i < n; i++) {
			if (f[i+1] == "ns/op") v = f[i]
			if (f[i+1] == "allocs/op") a = f[i]
			if (f[i+1] == "B/op") bb = f[i]
			if (f[i+1] == "sampled_err_rel") e = f[i]
			if (f[i+1] == "ns/sim_s_node") nsn = f[i]
		}
		if (v == "") next
		if (FILENAME == ARGV[1]) {
			if (!(name in oldv)) oldv[name] = v
		} else if (!(name in newv)) {
			newv[name] = v
			newa[name] = a
			newb[name] = bb
			newerr[name] = e
			newnsn[name] = nsn
			order[++cnt] = name
		}
	}
	END {
		status = 0
		printf "%-42s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta"
		for (i = 1; i <= cnt; i++) {
			name = order[i]
			if (!(name in oldv)) {
				printf "%-42s %14s %14.0f %9s\n", name, "-", newv[name], "new"
				continue
			}
			d = (newv[name] - oldv[name]) / oldv[name] * 100
			flag = ""
			# Fleet and long-horizon lanes are exempt: few-iteration runs
			# swing well past any useful threshold; their own gates are
			# below.
			if (name ~ guard && name !~ /Parallel64/ && \
			    name !~ /(FleetAdvance|WebsearchQoS)/ && \
			    name !~ /(LongHorizon|Sampled)$/ && d > threshold) {
				flag = "  << REGRESSION"
				status = 1
			}
			printf "%-42s %14.0f %14.0f %+8.1f%%%s\n", name, oldv[name], newv[name], d, flag
		}
		# Multi-rate stepping lanes: wall-clock speedup of each macro
		# benchmark over its -exact reference twin, within the new recording.
		header = 0
		for (i = 1; i <= cnt; i++) {
			name = order[i]
			exact = name "Exact"
			if (!(exact in newv) || newv[name] <= 0) continue
			if (!header) {
				print ""
				print "multi-rate stepping (macro vs exact, new recording):"
				header = 1
			}
			printf "%-42s %13.1fx faster than %s\n", name, newv[exact] / newv[name], exact
		}
		# Sampled lane: each BenchmarkXSampled must beat its macro twin
		# BenchmarkXLongHorizon by the speedup floor and keep its headline
		# error (vs its own untimed macro reference) within the ceiling.
		header = 0
		for (i = 1; i <= cnt; i++) {
			name = order[i]
			if (name !~ /Sampled$/) continue
			macro = name
			sub(/Sampled$/, "LongHorizon", macro)
			if (!(macro in newv) || newv[name] <= 0) continue
			if (!header) {
				print ""
				printf "sampled lane (sampled vs macro, new recording; floor %.1fx, err ceiling %.4f):\n", smin, emax
				header = 1
			}
			sp = newv[macro] / newv[name]
			err = newerr[name]
			printf "%-42s %13.1fx vs %s  err=%s\n", name, sp, macro, (err == "" ? "n/a" : err)
			if (sp < smin + 0) {
				printf "FAIL: %s is %.1fx its macro twin, below the %.1fx floor\n", name, sp, smin
				status = 1
			}
			if (err != "" && err + 0 > emax + 0) {
				printf "FAIL: %s headline error %s exceeds the %.4f ceiling\n", name, err, emax
				status = 1
			}
		}
		# Flight recorder budget, measured inside the new recording: the
		# instrumented step loop against the uninstrumented one.
		base = "BenchmarkChipStep"
		recd = "BenchmarkChipStepRecorded"
		if ((base in newv) && (recd in newv) && newv[base] > 0) {
			ovh = (newv[recd] - newv[base]) / newv[base] * 100
			print ""
			printf "flight recorder overhead (new recording): %+.1f%% ns/op (budget %s%%)\n", ovh, rthreshold
			if (ovh > rthreshold + 0) {
				printf "FAIL: %s exceeds %s by more than %s%% ns/op\n", recd, base, rthreshold
				status = 1
			}
			if (newa[recd] != "" && newa[recd] + 0 > 0) {
				printf "FAIL: %s allocates (%s allocs/op, want 0)\n", recd, newa[recd]
				status = 1
			}
		}
		# Telemetry plane budget: the series + attribution step loop
		# against the uninstrumented one, same shape as the recorder gate.
		tsd = "BenchmarkChipStepTimeseries"
		if ((base in newv) && (tsd in newv) && newv[base] > 0) {
			ovh = (newv[tsd] - newv[base]) / newv[base] * 100
			print ""
			printf "telemetry plane overhead (new recording): %+.1f%% ns/op (budget %s%%)\n", ovh, tthreshold
			if (ovh > tthreshold + 0) {
				printf "FAIL: %s exceeds %s by more than %s%% ns/op\n", tsd, base, tthreshold
				status = 1
			}
			if (newa[tsd] != "" && newa[tsd] + 0 > 0) {
				printf "FAIL: %s allocates (%s allocs/op, want 0)\n", tsd, newa[tsd]
				status = 1
			}
		}
		# Sweep allocation budget, measured inside the new recording:
		# absolute ceilings on the pooled sweep lanes. The 64-node fleet
		# lanes have their own ceilings below.
		header = 0
		for (i = 1; i <= cnt; i++) {
			name = order[i]
			if (name !~ /^Benchmark(Sweep|DatacenterSweep)/) continue
			if (name ~ /Parallel64/) continue
			if (name ~ /(LongHorizon|Sampled)$/) continue
			if (newa[name] == "" && newb[name] == "") continue
			if (!header) {
				print ""
				printf "sweep allocation budget (new recording): <=%d allocs/op, <=%d B/op\n", abudget, bbudget
				header = 1
			}
			printf "%-42s %10s allocs/op %12s B/op\n", name, newa[name], newb[name]
			if (newa[name] != "" && newa[name] + 0 > abudget + 0) {
				printf "FAIL: %s exceeds the sweep alloc budget (%s allocs/op > %d)\n", name, newa[name], abudget
				status = 1
			}
			if (newb[name] != "" && newb[name] + 0 > bbudget + 0) {
				printf "FAIL: %s exceeds the sweep bytes budget (%s B/op > %d)\n", name, newb[name], bbudget
				status = 1
			}
		}
		# Fleet allocation budget: the 64-node lane.
		header = 0
		for (i = 1; i <= cnt; i++) {
			name = order[i]
			if (name !~ /Parallel64/) continue
			if (newa[name] == "" && newb[name] == "") continue
			if (!header) {
				print ""
				printf "fleet allocation budget (new recording): <=%d allocs/op, <=%d B/op\n", fabudget, fbbudget
				header = 1
			}
			printf "%-42s %10s allocs/op %12s B/op\n", name, newa[name], newb[name]
			if (newa[name] != "" && newa[name] + 0 > fabudget + 0) {
				printf "FAIL: %s exceeds the fleet alloc budget (%s allocs/op > %d)\n", name, newa[name], fabudget
				status = 1
			}
			if (newb[name] != "" && newb[name] + 0 > fbbudget + 0) {
				printf "FAIL: %s exceeds the fleet bytes budget (%s B/op > %d)\n", name, newb[name], fbbudget
				status = 1
			}
		}
		# Fleet scaling: the sharded engine is supposed to hold per-node
		# advance cost near-flat in fleet size, so the 4096-node lane must
		# stay within the ceiling of the 256-node lane on the metric the
		# benchmarks report directly (ns/sim_s_node: wall-clock ns per
		# simulated second per node, invariant to epoch length and b.N).
		# Enforced at gomaxprocs >= 4; advisory below (see header).
		b256 = "BenchmarkFleetAdvance256"
		b4096 = "BenchmarkFleetAdvance4096"
		if (newnsn[b256] != "" && newnsn[b4096] != "" && newnsn[b256] + 0 > 0) {
			ratio = (newnsn[b4096] + 0) / (newnsn[b256] + 0)
			print ""
			printf "fleet scaling (new recording): 4096-node per-node cost %.2fx the 256-node cost (ceiling %.2fx%s)\n", \
				ratio, fsmax, (gmp >= 4 ? "" : ", advisory at gomaxprocs<4")
			if (gmp >= 4 && ratio > fsmax + 0) {
				printf "FAIL: %s per-node cost is %.2fx %s, above the %.2fx ceiling\n", b4096, ratio, b256, fsmax
				status = 1
			}
		}
		# At gomaxprocs 1 the shard and traffic fan-outs run serial and the
		# FleetAdvance lanes must be allocation-free in steady state: the
		# pooled arenas and pre-sized run queues leave nothing per epoch.
		# (Parallel fan-out allocates per-epoch goroutine scaffolding, so
		# the zero gate only applies to serial recordings.)
		if (gmp <= 1) {
			for (i = 1; i <= cnt; i++) {
				name = order[i]
				if (name !~ /^BenchmarkFleetAdvance/) continue
				if (newa[name] != "" && newa[name] + 0 > 0) {
					printf "FAIL: %s allocates (%s allocs/op, want 0 at gomaxprocs=1)\n", name, newa[name]
					status = 1
				}
			}
		}
		if (status) {
			print ""
			printf "FAIL: benchmark gate failed (see above)\n"
		}
		exit status
	}' "$old" "$new"
