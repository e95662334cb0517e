# agsim build/test/bench entry points.
#
#   make check         — the tier-1 gate: gofmt, build, vet, full test suite,
#                        then bench-check
#   make bench-check   — vet and test the bench/ module (agbench, which calls
#                        into the simulator's packages) offline, as
#                        bench/run.sh builds it: GOPROXY=off GOTOOLCHAIN=local;
#                        its smoke test runs in a few seconds
#   make fmt           — fail when gofmt would rewrite any file (lists them)
#   make race          — race-detector lane over the concurrency-bearing packages
#                        and the scrape path (obs, tsdb, amester); snapshot's
#                        tests Save and Load one root type from concurrent
#                        goroutines, which contend for its cached identity
#                        tables
#   make bench         — microbenchmarks with -benchmem, JSON'd to BENCH_<date>.json
#                        (five passes: micro step lanes, 64-node fleet lanes,
#                        fleet-scale ladder + websearch-qos, long-horizon
#                        sampled pairs, experiment sweeps; cluster lanes also
#                        record ns per simulated second)
#   make bench-compare — diff the two most recent BENCH_*.json (falling back to
#                        the committed version of the newest when only one file
#                        exists); fails on >10% ns/op regressions in the
#                        chip-step and sweep benches, reports the
#                        macro-vs-exact wall-clock speedups of the multi-rate
#                        stepping lanes, holds the 64-node fleet lane to
#                        its own FLEET_*_BUDGET allocation ceilings, and
#                        holds the sampled lane to the SAMPLED_SPEEDUP_MIN
#                        floor (default 10x vs its macro twin) with headline
#                        error within SAMPLED_ERR_MAX (default 1%), and
#                        holds the fleet-scale ladder to FLEET_SCALING_MAX
#                        (4096-node per-node advance cost <= 1.5x the
#                        256-node cost, enforced at gomaxprocs >= 4; at
#                        gomaxprocs 1 the FleetAdvance lanes must instead
#                        stay at 0 allocs/op)
#   make profile       — CPU+heap profile one experiment via cmd/agsim
#                        (PROFILE_EXP selects it, default fig7 on the mesh lane)
#   make smoke         — run one quick experiment with every flight-recorder
#                        exporter and the telemetry plane enabled, validate
#                        the Chrome trace (including the guardband-attribution
#                        counter track) with cmd/tracecheck -attrib, grep the
#                        Prometheus output for the core metric families (the
#                        health detectors' throttle_decisions and
#                        exhausted_ticks counters among them) and a non-zero
#                        agsim_events_recorded, run
#                        every program under examples/ (a non-zero exit
#                        fails), then boot amesterd with -http/-timeseries,
#                        curl the live /health, /timeseries and /stream
#                        endpoints, read the probe set with amesterd -connect,
#                        require amesterd and an attached -watch client to
#                        exit within 5s of SIGTERM, serve again with
#                        -snap-dir, SIGTERM (graceful shutdown writes a final
#                        snapshot), `agsim replay` the newest image to the
#                        next cpm-window event and require `-until droops`
#                        to exit 2 at once, require `agsim replay` of a copy
#                        whose layout byte (offset 7) reads 9, as a pre-v10
#                        checkpoint's does, to exit non-zero without a
#                        panic and ask for a re-capture ("state layout
#                        changed; re-capture"), require amesterd `-snap-every
#                        -1` (writing no image) and `-threads -3` and
#                        agsched `-threads -2`, `-on-cores 99`,
#                        `-duration 1e300` and `-duration NaN` to exit 2
#                        within 5s without a Go panic (which also exits
#                        2), the two durations with a message naming the
#                        failed check, run
#                        agsched with default flags, with -threads 12
#                        (consolidation past one socket) and with -borrow
#                        -threads 5, each printing its total power line,
#                        run cpmcal's calibration sweep (its 4200 MHz
#                        fit), and require cpmcal `-vstep 1e-20` (a step
#                        that does not advance the sweep) and `-fmax Inf`
#                        to exit 2 within 5s without a panic, with a
#                        message naming the failed check
#   make fuzz-smoke    — run each fuzz target for 20s: snapshot FuzzLoad
#                        (mutated image payloads decoded into a live chip
#                        and a small fleet must never panic or allocate
#                        without bound), pdn FuzzMeshSolve, qos
#                        FuzzRunWindow, amester FuzzTimeseriesQuery, cpm
#                        FuzzSensorRead (a memoized CPM must read and
#                        latch exactly as the memo-free expression),
#                        agsim FuzzParseUntil (`agsim replay -until`) and
#                        rng FuzzSourceSkip (a jump-ahead must leave a
#                        stream where as many draws do)
#   make ci            — everything CI runs: check + race + smoke +
#                        fuzz-smoke + bench + bench-compare
#                        (bench-compare gates ns/op regressions and the
#                        recorder's overhead/alloc budget)
#
# GO selects the toolchain; WORKERS feeds -workers through AGSIM benches.

GO          ?= go
DATE        := $(shell date +%Y%m%d)
BENCHES     ?= BenchmarkChipStep|BenchmarkSweep(Serial|Parallel)|BenchmarkDatacenterSweep(Serial|SerialExact)?$$|BenchmarkDatacenterSweepParallel$$
PROFILE_EXP ?= fig7
PROFILE_FLAGS ?= -quick -mesh
SMOKE_EXP   ?= fig3
SMOKE_DIR   ?= /tmp/agsim-smoke
SMOKE_AMESTER_PORT ?= 7207
SMOKE_HTTP_PORT    ?= 7208

.PHONY: all fmt build vet test check bench-check race bench bench-compare profile smoke fuzz-smoke ci

# smoke_exit2 NAME,COMMAND: run COMMAND under a 5 s timeout into
# $(SMOKE_DIR)/NAME.out and fail unless it exits 2 without a Go panic
# (a panic exits 2 too; 124 means it was still running).
smoke_exit2 = timeout 5 $(2) >$(SMOKE_DIR)/$(1).out 2>&1 && st=0 || st=$$?; \
	if [ $$st -ne 2 ] || grep -q 'panic:' $(SMOKE_DIR)/$(1).out; then \
		echo "smoke: $(2): exit status $$st, want 2 without a panic (124: still running after 5s)"; \
		cat $(SMOKE_DIR)/$(1).out; exit 1; \
	fi

all: check

fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt would rewrite:"; echo "$$files"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

check: fmt build vet test bench-check

# The bench/ module has its own go.mod (replace agsim => ../), so the
# root's ./... never builds it.
bench-check:
	cd bench && GOPROXY=off GOTOOLCHAIN=local $(GO) vet ./... && \
		GOPROXY=off GOTOOLCHAIN=local $(GO) test ./...

# The experiments package takes ~5.5 min under the detector on a 2-vCPU
# host (327 s measured; the macro-vs-exact and sampled-lane matrices are
# detector-rate-limited, not hung). That is within 2x of the default 10m
# go-test timeout, too tight a hair-trigger, so the lane sets its own.
race:
	$(GO) test -race -timeout 30m ./internal/parallel ./internal/cluster ./internal/experiments \
		./internal/fleet ./internal/traffic ./internal/snapshot \
		./internal/obs ./internal/tsdb ./internal/amester

bench:
	./scripts/bench.sh '$(BENCHES)' BENCH_$(DATE).json

bench-compare:
	./scripts/bench_compare.sh

profile:
	$(GO) run ./cmd/agsim run $(PROFILE_EXP) $(PROFILE_FLAGS) \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof — inspect with: $(GO) tool pprof cpu.pprof"

smoke:
	mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/agsim run $(SMOKE_EXP) -quick -events -timeseries \
		-trace-out $(SMOKE_DIR)/trace.json -metrics-out $(SMOKE_DIR)/metrics.prom
	$(GO) run ./cmd/tracecheck -attrib $(SMOKE_DIR)/trace.json
	@grep -q '^agsim_micro_steps_total{' $(SMOKE_DIR)/metrics.prom
	@grep -q '^# TYPE agsim_macro_leap_seconds histogram' $(SMOKE_DIR)/metrics.prom
	@grep -q '^agsim_sim_time_seconds{' $(SMOKE_DIR)/metrics.prom
	@grep -q '^agsim_series_registered ' $(SMOKE_DIR)/metrics.prom
	@grep -q '^agsim_throttle_decisions_total{' $(SMOKE_DIR)/metrics.prom
	@grep -q '^agsim_exhausted_ticks_total{' $(SMOKE_DIR)/metrics.prom
	@grep -Eq '^agsim_events_recorded [1-9][0-9]*$$' $(SMOKE_DIR)/metrics.prom
	mkdir -p $(SMOKE_DIR)/examples
	$(GO) build -o $(SMOKE_DIR)/examples/ ./examples/...
	@set -e; for ex in examples/*/; do \
		name=$$(basename $$ex); \
		$(SMOKE_DIR)/examples/$$name >$(SMOKE_DIR)/example-$$name.out; \
		echo "smoke: example $$name ran"; \
	done
	$(GO) build -o $(SMOKE_DIR)/amesterd ./cmd/amesterd
	@set -e; \
	$(SMOKE_DIR)/amesterd -listen 127.0.0.1:$(SMOKE_AMESTER_PORT) \
		-http 127.0.0.1:$(SMOKE_HTTP_PORT) -timeseries -seed 1 \
		>$(SMOKE_DIR)/amesterd.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT INT TERM; \
	url=http://127.0.0.1:$(SMOKE_HTTP_PORT); \
	i=0; until curl -sf $$url/health >/dev/null 2>&1; do \
		i=$$((i+1)); [ $$i -lt 50 ] || { cat $(SMOKE_DIR)/amesterd.log; exit 1; }; \
		sleep 0.2; \
	done; \
	curl -sf $$url/timeseries | grep -q '"power_w"'; \
	curl -sf "$$url/timeseries?name=power_w&res=1" | grep -q '"levels"'; \
	curl -sf $$url/health | grep -q '"status"'; \
	curl -sf --max-time 5 $$url/stream | sed -n '/^data:/{p;q;}' | grep -q '"seq"'; \
	echo "smoke: amesterd endpoints validated on $$url"; \
	$(SMOKE_DIR)/amesterd -connect 127.0.0.1:$(SMOKE_AMESTER_PORT) >$(SMOKE_DIR)/probes.out; \
	grep -q '^total_power_w ' $(SMOKE_DIR)/probes.out; \
	grep -q '^p1_undervolt_mv ' $(SMOKE_DIR)/probes.out; \
	echo "smoke: amesterd -connect read the server probe set"; \
	$(SMOKE_DIR)/amesterd -connect 127.0.0.1:$(SMOKE_AMESTER_PORT) -watch p0_power_w -samples 100000 \
		>$(SMOKE_DIR)/watch.out 2>&1 & wpid=$$!; \
	trap 'kill $$pid $$wpid 2>/dev/null' EXIT INT TERM; \
	i=0; until [ "$$(wc -l <$(SMOKE_DIR)/watch.out)" -ge 2 ]; do \
		i=$$((i+1)); [ $$i -lt 50 ] || { cat $(SMOKE_DIR)/watch.out; exit 1; }; \
		sleep 0.1; \
	done; \
	kill -TERM $$pid; \
	(sleep 5; kill -KILL $$pid $$wpid 2>/dev/null) & timer=$$!; \
	wait $$pid && st=0 || st=$$?; \
	wait $$wpid && wst=0 || wst=$$?; \
	kill $$timer 2>/dev/null || true; trap - EXIT INT TERM; \
	[ $$st -eq 0 ] || { echo "smoke: amesterd exit status $$st after SIGTERM (137: still running after 5s)"; cat $(SMOKE_DIR)/amesterd.log; exit 1; }; \
	[ $$wst -ne 137 ] || { echo "smoke: watcher still running 5s after amesterd's SIGTERM"; exit 1; }; \
	echo "smoke: amesterd and its watcher exited after SIGTERM"
	$(GO) build -o $(SMOKE_DIR)/agsim ./cmd/agsim
	@set -e; \
	rm -rf $(SMOKE_DIR)/snaps; mkdir -p $(SMOKE_DIR)/snaps; \
	$(SMOKE_DIR)/amesterd -listen 127.0.0.1:$(SMOKE_AMESTER_PORT) -seed 7 \
		-snap-dir $(SMOKE_DIR)/snaps -snap-every 0.5 \
		>$(SMOKE_DIR)/serve.log 2>&1 & spid=$$!; \
	trap 'kill $$spid 2>/dev/null' EXIT INT TERM; \
	i=0; until [ -n "$$(ls $(SMOKE_DIR)/snaps 2>/dev/null)" ]; do \
		i=$$((i+1)); [ $$i -lt 100 ] || { cat $(SMOKE_DIR)/serve.log; exit 1; }; \
		sleep 0.2; \
	done; \
	kill -TERM $$spid; wait $$spid; trap - EXIT INT TERM; \
	snap=$$(ls $(SMOKE_DIR)/snaps/*.snap | sort | tail -1); \
	$(SMOKE_DIR)/agsim replay -from $$snap -until cpm-window | tee $(SMOKE_DIR)/replay.out; \
	grep -q 'cpm-window #1' $(SMOKE_DIR)/replay.out; \
	echo "smoke: replayed $$snap to the next cpm-window event"; \
	timeout 5 $(SMOKE_DIR)/agsim replay -from $$snap -until droops \
		>$(SMOKE_DIR)/replay-bad.out 2>&1 && st=0 || st=$$?; \
	[ $$st -eq 2 ] || { echo "smoke: agsim replay -until droops exit status $$st, want 2 (124: still stepping after 5s)"; cat $(SMOKE_DIR)/replay-bad.out; exit 1; }; \
	grep -q 'cpm-window' $(SMOKE_DIR)/replay-bad.out; \
	echo "smoke: agsim replay -until droops exited 2, listing the event kinds"; \
	cp $$snap $(SMOKE_DIR)/layout9.snap; \
	printf '\011' | dd of=$(SMOKE_DIR)/layout9.snap bs=1 seek=7 conv=notrunc status=none; \
	timeout 5 $(SMOKE_DIR)/agsim replay -from $(SMOKE_DIR)/layout9.snap -until cpm-window \
		>$(SMOKE_DIR)/replay-layout9.out 2>&1 && st=0 || st=$$?; \
	if [ $$st -eq 0 ] || [ $$st -eq 124 ] || grep -q 'panic:' $(SMOKE_DIR)/replay-layout9.out; then \
		echo "smoke: agsim replay of a layout-9 image: exit status $$st, want non-zero without a panic (124: still running after 5s)"; \
		cat $(SMOKE_DIR)/replay-layout9.out; exit 1; \
	fi; \
	grep -q 'state layout changed; re-capture' $(SMOKE_DIR)/replay-layout9.out; \
	echo "smoke: agsim replay refused a layout-9 image, asking for a re-capture"
	@set -e; rm -rf $(SMOKE_DIR)/badsnaps; mkdir -p $(SMOKE_DIR)/badsnaps; \
	$(call smoke_exit2,amesterd-snap-every,$(SMOKE_DIR)/amesterd -listen 127.0.0.1:$(SMOKE_AMESTER_PORT) -snap-dir $(SMOKE_DIR)/badsnaps -snap-every -1); \
	[ -z "$$(ls $(SMOKE_DIR)/badsnaps)" ] || { echo "smoke: amesterd -snap-every -1 wrote an image"; exit 1; }; \
	$(call smoke_exit2,amesterd-threads,$(SMOKE_DIR)/amesterd -listen 127.0.0.1:$(SMOKE_AMESTER_PORT) -threads -3); \
	echo "smoke: amesterd -snap-every -1 and -threads -3 exited 2 before listening"
	$(GO) build -o $(SMOKE_DIR)/agsched ./cmd/agsched
	@set -e; $(call smoke_exit2,agsched-threads,$(SMOKE_DIR)/agsched -threads -2); \
	$(call smoke_exit2,agsched-on-cores,$(SMOKE_DIR)/agsched -on-cores 99); \
	$(call smoke_exit2,agsched-duration-huge,$(SMOKE_DIR)/agsched -duration 1e300); \
	grep -q 'maximum' $(SMOKE_DIR)/agsched-duration-huge.out; \
	$(call smoke_exit2,agsched-duration-nan,$(SMOKE_DIR)/agsched -duration NaN); \
	grep -q 'not a finite' $(SMOKE_DIR)/agsched-duration-nan.out; \
	echo "smoke: agsched -threads -2, -on-cores 99, -duration 1e300 and -duration NaN exited 2, naming the failed check"
	$(SMOKE_DIR)/agsched -duration 0.5 >$(SMOKE_DIR)/agsched.out
	@grep -q '^  total power ' $(SMOKE_DIR)/agsched.out
	$(SMOKE_DIR)/agsched -threads 12 -duration 0.5 >$(SMOKE_DIR)/agsched-threads12.out
	@grep -q '^  total power ' $(SMOKE_DIR)/agsched-threads12.out
	$(SMOKE_DIR)/agsched -borrow -threads 5 -duration 0.5 >$(SMOKE_DIR)/agsched-borrow5.out
	@grep -q '^  total power ' $(SMOKE_DIR)/agsched-borrow5.out
	@echo "smoke: agsched (default, -threads 12, -borrow -threads 5) printed its total power lines"
	$(GO) build -o $(SMOKE_DIR)/cpmcal ./cmd/cpmcal
	$(SMOKE_DIR)/cpmcal >$(SMOKE_DIR)/cpmcal.out
	@grep -q '^ *4200 MHz: ' $(SMOKE_DIR)/cpmcal.out
	@echo "smoke: cpmcal printed its 4200 MHz fit"
	@set -e; $(call smoke_exit2,cpmcal-vstep,$(SMOKE_DIR)/cpmcal -vstep 1e-20); \
	grep -q 'does not advance' $(SMOKE_DIR)/cpmcal-vstep.out; \
	$(call smoke_exit2,cpmcal-fmax,$(SMOKE_DIR)/cpmcal -fmax Inf); \
	grep -q 'not a finite' $(SMOKE_DIR)/cpmcal-fmax.out; \
	echo "smoke: cpmcal -vstep 1e-20 and -fmax Inf exited 2, naming the failed check"
	@echo "smoke: exporters validated in $(SMOKE_DIR)"

# Fuzz smoke: a short run of each fuzz target (go test fuzzes one target
# per invocation). Minimization of a new input is capped well below the
# run time so a large seed cannot spend the whole budget shrinking one case.
fuzz-smoke:
	@set -e; for t in ./internal/snapshot:FuzzLoad ./internal/pdn:FuzzMeshSolve ./internal/qos:FuzzRunWindow \
		./internal/amester:FuzzTimeseriesQuery ./internal/cpm:FuzzSensorRead ./cmd/agsim:FuzzParseUntil \
		./internal/rng:FuzzSourceSkip; do \
		echo "fuzz-smoke: $${t%%:*} $${t##*:} for 20s"; \
		$(GO) test $${t%%:*} -run '^$$' -fuzz "^$${t##*:}$$" -fuzztime 20s -fuzzminimizetime 5s; \
	done

ci: check race smoke fuzz-smoke bench bench-compare
