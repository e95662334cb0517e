# agsim build/test/bench entry points.
#
#   make check         — the tier-1 gate: gofmt, build, vet, full test suite
#   make fmt           — fail when gofmt would rewrite any file (lists them)
#   make race          — race-detector lane over the concurrency-bearing packages
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
#                        Prometheus output for the core metric families, run
#                        every program under examples/ (a non-zero exit
#                        fails), then boot amesterd with -http/-timeseries,
#                        curl the live /health, /timeseries and /stream
#                        endpoints, read the probe set with amesterd -connect,
#                        require amesterd and an attached -watch client to
#                        exit within 5s of SIGTERM, and run agsched once
#   make dist-smoke    — the distributed-sweep and checkpoint/replay smoke:
#                        sweep DIST_SMOKE_UNITS through a two-worker fleet
#                        and through a single worker and require the merges
#                        byte-identical, then serve with -snap-dir, SIGTERM
#                        (graceful shutdown writes a final snapshot) and
#                        `agsim replay` the newest image to the next
#                        cpm-window event
#   make fuzz-smoke    — run each fuzz target for 20s: snapshot FuzzLoad
#                        (mutated image payloads decoded into a live chip
#                        and a small fleet must never panic or allocate
#                        without bound), pdn FuzzMeshSolve, qos
#                        FuzzRunWindow and amester FuzzTimeseriesQuery
#   make ci            — everything CI runs: check + race + smoke +
#                        dist-smoke + fuzz-smoke + bench + bench-compare
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
DIST_SMOKE_PORT    ?= 7209
DIST_SMOKE_UNITS   ?= fig3,fig16

.PHONY: all fmt build vet test check race bench bench-compare profile smoke dist-smoke fuzz-smoke ci

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

check: fmt build vet test

# The experiments package takes ~5.5 min under the detector on a 2-vCPU
# host (327 s measured; the macro-vs-exact and sampled-lane matrices are
# detector-rate-limited, not hung). That is within 2x of the default 10m
# go-test timeout, too tight a hair-trigger, so the lane sets its own.
race:
	$(GO) test -race -timeout 30m ./internal/parallel ./internal/cluster ./internal/experiments \
		./internal/fleet ./internal/traffic ./internal/snapshot

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
	$(GO) build -o $(SMOKE_DIR)/agsched ./cmd/agsched
	$(SMOKE_DIR)/agsched -duration 0.5 >$(SMOKE_DIR)/agsched.out
	@grep -q '^  total power ' $(SMOKE_DIR)/agsched.out
	@echo "smoke: agsched printed its total power line"
	@echo "smoke: exporters validated in $(SMOKE_DIR)"

# Distributed-sweep smoke: the same unit list swept by a two-worker fleet
# and by a single worker must merge byte-identically (the coordinator
# assembles renders in unit order, so worker count can't show). Then the
# snapshot/replay loop: serve with periodic snapshots, SIGTERM (graceful
# shutdown writes a final image), and time-travel from the newest image to
# the next cpm-window event.
dist-smoke:
	mkdir -p $(SMOKE_DIR)
	$(GO) build -o $(SMOKE_DIR)/amesterd ./cmd/amesterd
	$(GO) build -o $(SMOKE_DIR)/agsim ./cmd/agsim
	@set -e; \
	for n in 2 1; do \
		$(SMOKE_DIR)/amesterd -listen 127.0.0.1:$(DIST_SMOKE_PORT) \
			-sweep $(DIST_SMOKE_UNITS) -quick \
			>$(SMOKE_DIR)/dist$$n.out 2>$(SMOKE_DIR)/dist$$n.log & cpid=$$!; \
		trap 'kill $$cpid 2>/dev/null' EXIT INT TERM; \
		i=0; until curl -sf http://127.0.0.1:$(DIST_SMOKE_PORT)/status >/dev/null 2>&1; do \
			i=$$((i+1)); [ $$i -lt 50 ] || { cat $(SMOKE_DIR)/dist$$n.log; exit 1; }; \
			sleep 0.2; \
		done; \
		w=0; while [ $$w -lt $$n ]; do w=$$((w+1)); \
			$(SMOKE_DIR)/agsim worker http://127.0.0.1:$(DIST_SMOKE_PORT) \
				2>$(SMOKE_DIR)/dist$$n-w$$w.log & \
		done; \
		wait $$cpid; trap - EXIT INT TERM; \
	done; \
	cmp $(SMOKE_DIR)/dist2.out $(SMOKE_DIR)/dist1.out; \
	echo "dist-smoke: two-worker merge byte-identical to single-worker ($$(wc -c <$(SMOKE_DIR)/dist2.out) bytes)"
	@set -e; \
	rm -rf $(SMOKE_DIR)/snaps; mkdir -p $(SMOKE_DIR)/snaps; \
	$(SMOKE_DIR)/amesterd -listen 127.0.0.1:$(DIST_SMOKE_PORT) -seed 7 \
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
	echo "dist-smoke: replayed $$snap to the next cpm-window event"

# Fuzz smoke: a short run of each fuzz target (go test fuzzes one target
# per invocation). Minimization of a new input is capped well below the
# run time so a large seed cannot spend the whole budget shrinking one case.
fuzz-smoke:
	@set -e; for t in ./internal/snapshot:FuzzLoad ./internal/pdn:FuzzMeshSolve ./internal/qos:FuzzRunWindow \
		./internal/amester:FuzzTimeseriesQuery; do \
		echo "fuzz-smoke: $${t%%:*} $${t##*:} for 20s"; \
		$(GO) test $${t%%:*} -run '^$$' -fuzz "^$${t##*:}$$" -fuzztime 20s -fuzzminimizetime 5s; \
	done

ci: check race smoke dist-smoke fuzz-smoke bench bench-compare
