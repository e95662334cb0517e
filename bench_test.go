// Package agsim_test benchmarks the simulator's hot paths, sweep engine,
// fleet and sampled lanes: the passes scripts/bench.sh records and
// scripts/bench_compare.sh gates. Each experiment's own cost is timed by
// bench/agbench (its paper workload's per-experiment layers).
//
// Benchmarks default to the reduced (Quick) sweeps so the full suite stays
// in benchmark-friendly time; set AGSIM_BENCH_FULL=1 for the full-fidelity
// sweeps used to produce EXPERIMENTS.md.
package agsim_test

import (
	"math"
	"os"
	"testing"

	"agsim/internal/chip"
	"agsim/internal/experiments"
	"agsim/internal/firmware"
	"agsim/internal/fleet"
	"agsim/internal/obs"
	"agsim/internal/sample"
	"agsim/internal/server"
	"agsim/internal/traffic"
	"agsim/internal/tsdb"
	"agsim/internal/workload"
)

func benchOptions() experiments.Options {
	if os.Getenv("AGSIM_BENCH_FULL") != "" {
		return experiments.DefaultOptions()
	}
	return experiments.QuickOptions()
}

// Microbenchmarks for the simulator's hot paths.

func BenchmarkChipStep(b *testing.B) {
	c := chip.MustNew(chip.DefaultConfig("bench", 1))
	d := workload.MustGet("raytrace")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(chip.DefaultStepSec)
	}
}

// BenchmarkChipStepRecorded is BenchmarkChipStep with the flight recorder
// attached and its event ring enabled. The recorder's contract is 0
// allocs/op and ns/op within a few percent of the uninstrumented loop
// (scripts/bench_compare.sh gates the ratio); every emission site is a
// nil-check plus array writes into storage preallocated at construction.
func BenchmarkChipStepRecorded(b *testing.B) {
	rec := obs.New("bench", obs.DefaultEventCap)
	cfg := chip.DefaultConfig("bench", 1)
	cfg.Recorder = rec
	c := chip.MustNew(cfg)
	d := workload.MustGet("raytrace")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(chip.DefaultStepSec)
	}
}

// BenchmarkChipStepTimeseries is BenchmarkChipStepRecorded with the
// telemetry plane on top: multi-resolution series (power, frequency,
// rail, margin) plus the per-tick attribution record. The plane's
// contract is 0 allocs/op and ns/op within a few percent of the plain
// step loop (scripts/bench_compare.sh gates the ratio via
// TSDB_THRESHOLD_PCT); every Push is a ring-index fold into storage
// preallocated when the series was bound.
func BenchmarkChipStepTimeseries(b *testing.B) {
	rec := obs.New("bench", obs.DefaultEventCap)
	rec.EnableTimeSeries(tsdb.DefaultSpec())
	cfg := chip.DefaultConfig("bench", 1)
	cfg.Recorder = rec
	c := chip.MustNew(cfg)
	d := workload.MustGet("raytrace")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(chip.DefaultStepSec)
	}
}

// TestChipStepTimeseriesZeroAlloc pins the telemetry plane's
// zero-allocation contract on the instrumented step loop, so `go test`
// alone catches a regression that puts an allocation on a series push or
// the attribution emission.
func TestChipStepTimeseriesZeroAlloc(t *testing.T) {
	rec := obs.New("alloc", obs.DefaultEventCap)
	rec.EnableTimeSeries(tsdb.DefaultSpec())
	cfg := chip.DefaultConfig("alloc", 1)
	cfg.Recorder = rec
	c := chip.MustNew(cfg)
	d := workload.MustGet("raytrace")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(1)
	if got := testing.AllocsPerRun(2000, func() {
		c.Step(chip.DefaultStepSec)
	}); got != 0 {
		t.Errorf("timeseries-instrumented chip step allocates %v allocs/op, want 0", got)
	}
}

// TestChipStepRecordedZeroAlloc pins the recorder's zero-allocation
// contract outside the benchmark harness, so `go test` alone catches a
// regression that puts an allocation on the instrumented step path.
func TestChipStepRecordedZeroAlloc(t *testing.T) {
	rec := obs.New("alloc", obs.DefaultEventCap)
	cfg := chip.DefaultConfig("alloc", 1)
	cfg.Recorder = rec
	c := chip.MustNew(cfg)
	d := workload.MustGet("raytrace")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(1)
	if got := testing.AllocsPerRun(2000, func() {
		c.Step(chip.DefaultStepSec)
	}); got != 0 {
		t.Errorf("instrumented chip step allocates %v allocs/op, want 0", got)
	}
}

// BenchmarkChipStepMesh is BenchmarkChipStep on the mesh-fidelity lane:
// the distributed-grid PDN solved through the precomputed
// transfer-resistance matrix. The kernel's contract is 0 allocs/op and
// ns/op within ~2x of the lumped plane — constant time in the grid size.
func BenchmarkChipStepMesh(b *testing.B) {
	c := chip.MustNew(chip.DefaultConfig("bench", 1).WithMesh())
	d := workload.MustGet("raytrace")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(chip.DefaultStepSec)
	}
}

func BenchmarkChipStepOverclock(b *testing.B) {
	c := chip.MustNew(chip.DefaultConfig("bench", 1))
	d := workload.MustGet("lu_cb")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Overclock)
	c.Settle(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(chip.DefaultStepSec)
	}
}

// Sweep-engine benches: the same driver serial vs on a four-worker pool.
// On a multi-core host the parallel run should show a multi-× wall-clock
// win with bit-identical metrics (pinned by TestFig03ParallelBitIdentical).

func benchSweep(b *testing.B, workers int, mesh bool) {
	o := benchOptions()
	o.Workers = workers
	o.Mesh = mesh
	var r experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig14FullSuite(o)
	}
	b.ReportMetric(r.AvgPowerImprovement, "avg_power_imp_%")
}

func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1, false) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 4, false) }

// Mesh-fidelity sweep lanes: the same driver with every chip on the
// distributed-grid PDN, pricing the transfer-matrix kernel end to end.
func BenchmarkSweepSerialMesh(b *testing.B)   { benchSweep(b, 1, true) }
func BenchmarkSweepParallelMesh(b *testing.B) { benchSweep(b, 4, true) }

// Multi-rate lane benches: the sweep and datacenter drivers on the pure
// 1 ms reference lane (Options.Exact, the -exact flag). Their macro
// counterparts above run the default event-horizon macro-stepping; the
// wall-clock ratio between each pair is the speedup the multi-rate engine
// buys (scripts/bench_compare.sh reports it per recording). The paired
// headline metrics agree within 1% — pinned by the accuracy harness in
// internal/experiments/accuracy_test.go.

func BenchmarkSweepSerialExact(b *testing.B) {
	o := benchOptions()
	o.Workers = 1
	o.Exact = true
	var r experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig14FullSuite(o)
	}
	b.ReportMetric(r.AvgPowerImprovement, "avg_power_imp_%")
}

func BenchmarkDatacenterSweepSerialExact(b *testing.B) {
	o := benchOptions()
	o.Workers = 1
	o.Exact = true
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
}

func BenchmarkDatacenterSweepSerial(b *testing.B) {
	o := benchOptions()
	o.Workers = 1
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
}

func BenchmarkDatacenterSweepParallel(b *testing.B) {
	o := benchOptions()
	o.Workers = 4
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
}

// BenchmarkDatacenterSweepParallel64 is the datacenter sweep at fleet
// scale: 64 nodes on four sweep workers. One untimed warm-up run fills the
// chip/server/cluster arenas so the timed iterations measure the pooled
// steady state.
func BenchmarkDatacenterSweepParallel64(b *testing.B) {
	o := benchOptions()
	o.Workers = 4
	o.Nodes = 64
	experiments.DatacenterSweep(o)
	b.ResetTimer()
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
}

// benchFleetAdvance measures the sharded fleet engine's steady-state cost
// at a given fleet size: every node serves websearch on all cores under
// adaptive undervolting, open-loop traffic arrives at 75% of nominal
// per-node capacity, and each op advances the whole fleet through one
// traffic epoch (capacity read, arrival fan-out, shard-local advance
// loops). The headline metric is ns/sim_s_node — wall-clock nanoseconds
// per simulated second per node — which must stay near-flat as the fleet
// grows for the sharding claim to hold; scripts/bench_compare.sh holds the
// 4096-vs-256 ratio to FLEET_SCALING_MAX. The settle span runs untimed so
// the timed epochs measure the multi-rate steady state, and they must not
// allocate: the advance fan-out and the traffic epoch both run on stored
// state.
func benchFleetAdvance(b *testing.B, nodes int, timeseries bool) {
	const epochSec = 0.25
	cfg := server.DefaultConfig(1)
	var rec *obs.Recorder
	if timeseries {
		rec = obs.New("bench", obs.DefaultEventCap)
		rec.EnableTimeSeries(tsdb.CompactSpec())
	}
	f := fleet.MustNew(fleet.Config{
		Nodes:    nodes,
		Template: cfg,
		Workers:  4,
		Recorder: rec,
	})
	defer f.Close()
	ws := workload.MustGet("websearch")
	pl := make([]server.Placement, cfg.Sockets*cfg.CoresPerSocket)
	for c := range pl {
		pl[c] = server.Placement{Socket: c / cfg.CoresPerSocket, Core: c % cfg.CoresPerSocket}
	}
	for i := 0; i < nodes; i++ {
		s := f.Node(i)
		s.MustSubmit("serve", ws, pl, 1e9)
		s.SetMode(firmware.Undervolt)
	}
	tr := traffic.New(traffic.Config{
		Nodes:       nodes,
		RatePerSec:  90, // ~75% of a static node's ~48 GIPS at 0.4 GInst/query
		DemandGInst: 0.4,
		QueueCap:    256,
		Seed:        1,
	})
	caps := make([]float64, nodes)
	f.Advance(0.5) // settle into the multi-rate steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := range caps {
			caps[n] = math.Max(1, math.Round(f.NodeMIPS(n)/1000))
		}
		tr.Epoch(f.Pool(), epochSec, caps)
		f.Advance(epochSec)
	}
	b.StopTimer()
	b.ReportMetric(epochSec, "sim_s/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*epochSec*float64(nodes)), "ns/sim_s_node")
}

func BenchmarkFleetAdvance256(b *testing.B)  { benchFleetAdvance(b, 256, false) }
func BenchmarkFleetAdvance1024(b *testing.B) { benchFleetAdvance(b, 1024, false) }
func BenchmarkFleetAdvance4096(b *testing.B) { benchFleetAdvance(b, 4096, false) }

// BenchmarkFleetAdvance256Timeseries is the 256-node fleet advance with
// the telemetry plane recording (CompactSpec series on every chip plus
// attribution events); held against BenchmarkFleetAdvance256 it prices
// the plane at fleet scale.
func BenchmarkFleetAdvance256Timeseries(b *testing.B) { benchFleetAdvance(b, 256, true) }

// BenchmarkWebsearchQoS runs the registered websearch-qos experiment: the
// full policy x load grid with open-loop traffic on the sharded fleet, the
// serving headline. One untimed warm-up fills the arenas so the timed
// iterations measure the pooled steady state.
func BenchmarkWebsearchQoS(b *testing.B) {
	o := benchOptions()
	o.Workers = 4
	experiments.WebsearchQoS(o)
	b.ResetTimer()
	var r experiments.WebsearchQoSResult
	for i := 0; i < b.N; i++ {
		r = experiments.WebsearchQoS(o)
	}
	b.ReportMetric(r.EnergySavingPct, "ags_energy_saving_%")
	b.ReportMetric(r.P99StaticSec*1000, "p99_static_ms")
	b.ReportMetric(r.P99BoostSec*1000, "p99_boost_ms")
	b.ReportMetric(experiments.WebsearchQoSSimSeconds(o), "sim_s/op")
}

// Sampled-lane pairs: the same long-horizon driver on the macro lane vs
// under the sampling governor (Options.Sampled, the -sampled flag). Long
// measurement spans are where sampling pays: the macro lane stays
// tick-bound at ~32 ms leaps while a converged governor extrapolates
// multi-second spans. scripts/bench_compare.sh derives
// sampled_speedup_vs_macro from each pair and gates it with
// SAMPLED_SPEEDUP_MIN, plus the sampled_err_rel metric (each sampled
// bench's headline vs its own untimed macro reference) with
// SAMPLED_ERR_MAX. Accuracy against -exact is pinned per experiment by
// internal/experiments/sampled_test.go.

// longHorizonOptions stretches the measurement span to where long-horizon
// sweeps live: reduced (Quick) sweep subsets, two minutes of simulated
// steady state per point and full-size run-to-completion footprints.
// Settling stays detailed in both lanes, so the pair isolates what the
// governor buys on the measured span: the macro lane pays ~32 ms
// tick-bound leaps across the whole two minutes while the governor pays a
// few detailed windows plus capped-ratio fast-forwards.
func longHorizonOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.MeasureSec = 120
	o.WorkScale = 1
	return o
}

// The chip-level pair runs Fig05's workload-heterogeneity sweep: a pure
// steady-state driver whose every point measures MeasureSec of settled
// operation, so the horizon stretch lands entirely on the governed span.
func BenchmarkSweepLongHorizon(b *testing.B) {
	o := longHorizonOptions()
	o.Workers = 1
	var r experiments.Fig05Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig05Heterogeneity(o)
	}
	b.ReportMetric(r.AvgPowerAt1, "avg@1core_%")
}

func BenchmarkSweepSampled(b *testing.B) {
	o := longHorizonOptions()
	o.Workers = 1
	ref := experiments.Fig05Heterogeneity(o) // untimed macro reference
	o.Sampled = true
	b.ResetTimer()
	var r experiments.Fig05Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig05Heterogeneity(o)
	}
	b.ReportMetric(r.AvgPowerAt1, "avg@1core_%")
	b.ReportMetric(relErr(r.AvgPowerAt1, ref.AvgPowerAt1), "sampled_err_rel")
}

func BenchmarkDatacenterSweepLongHorizon(b *testing.B) {
	o := longHorizonOptions()
	o.Workers = 1
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
}

func BenchmarkDatacenterSweepSampled(b *testing.B) {
	o := longHorizonOptions()
	o.Workers = 1
	ref := experiments.DatacenterSweep(o) // untimed macro reference
	o.Sampled = true
	b.ResetTimer()
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
	b.ReportMetric(relErr(r.SavingAtHalfLoad, ref.SavingAtHalfLoad), "sampled_err_rel")
}

// relErr returns |got-ref| / max(|ref|, 1): relative error with an
// absolute floor so near-zero references do not explode the ratio.
func relErr(got, ref float64) float64 {
	return math.Abs(got-ref) / math.Max(math.Abs(ref), 1)
}

// TestSampledRunRecordedZeroAlloc pins the sampled lane's inner-loop
// allocation contract with the flight recorder attached: once the
// governor's signature buffers are sized and it has converged, alternating
// detailed windows with fast-forwards (mode-switch events, fast-forward
// counters and histograms included) must not allocate.
func TestSampledRunRecordedZeroAlloc(t *testing.T) {
	rec := obs.New("alloc", obs.DefaultEventCap)
	cfg := chip.DefaultConfig("alloc", 1)
	cfg.Recorder = rec.Shard("chip")
	c := chip.MustNew(cfg)
	d := workload.MustGet("raytrace")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(1)
	g := sample.New(c, sample.Config{Stats: &sample.RunStats{}})
	g.Run(2, nil) // warm up: size buffers, converge, reach the leap cap
	if g.FastSec() == 0 {
		t.Fatal("warm-up span never fast-forwarded; the steady-state loop is not being exercised")
	}
	if got := testing.AllocsPerRun(100, func() {
		g.Run(0.5, nil)
	}); got != 0 {
		t.Errorf("sampled run with recorder allocates %v allocs/op, want 0", got)
	}
}

func BenchmarkDatacenterSweep(b *testing.B) {
	o := benchOptions()
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
}
