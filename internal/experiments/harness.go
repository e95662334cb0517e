// Package experiments reproduces every table and figure of the paper's
// evaluation. Each FigNN function is a self-contained driver that builds
// the simulated Power 720, runs the paper's methodology, and returns the
// same series or rows the paper plots, plus the headline statistics its
// text quotes. cmd/agsim prints them; bench_test.go wraps them; and
// EXPERIMENTS.md records them against the paper's numbers.
package experiments

import (
	"fmt"
	"math"

	"agsim/internal/chip"
	"agsim/internal/cluster"
	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/parallel"
	"agsim/internal/sample"
	"agsim/internal/server"
	"agsim/internal/stats"
	"agsim/internal/units"
	"agsim/internal/workload"
)

// Options tune experiment fidelity against runtime.
type Options struct {
	// Seed drives every stochastic component.
	Seed uint64
	// SettleSec is simulated time given to the electrical and firmware
	// loops before measurement starts.
	SettleSec float64
	// MeasureSec is the steady-state measurement span.
	MeasureSec float64
	// WorkScale shrinks benchmark work for run-to-completion experiments;
	// 1.0 runs the full calibrated footprints.
	WorkScale float64
	// Quick restricts sweeps to representative subsets (used by unit
	// tests and quick benchmark runs).
	Quick bool
	// Workers bounds sweep-point concurrency: 0 selects
	// runtime.GOMAXPROCS(0), 1 forces the serial path. Results are
	// bit-identical at any worker count — every sweep point owns its
	// chip/server/cluster and tag-hashed RNG streams.
	Workers int
	// Mesh runs every chip the drivers build on the distributed-grid PDN
	// (pdn.Mesh) instead of the lumped Plane — the mesh-fidelity lane.
	// The mesh's transfer-resistance matrix is computed once per chip, so
	// the lane keeps the bit-identical-at-any-worker-count contract.
	Mesh bool
	// Exact pins every chip to the pure 1 ms reference lane, disabling
	// event-horizon macro-stepping. The default (false) rides the
	// multi-rate path; Exact is the golden lane accuracy is held against.
	Exact bool
	// Nodes sizes the datacenter sweep's cluster (and the naive fleet);
	// 0 selects the default 4. Job counts scale with it, so the sweep's
	// utilization points stay comparable across fleet sizes.
	Nodes int
	// Recorder, when non-nil, receives every chip's metrics and event
	// stream. Each sweep point registers a shard named after its tag —
	// the same tag that salts its RNG — so the merged snapshot is
	// bit-identical at any worker count. Nil disables recording at the
	// cost of one pointer test per emission site.
	Recorder *obs.Recorder
	// Sampled routes steady-state measurement and run-to-completion spans
	// through the sampling governor (internal/sample): detailed windows
	// alternate with analytic fast-forwards once the phase detector and the
	// confidence tracker both agree the signal is predictable. Every
	// headline statistic then carries an error bar (Stat.CI) derived from
	// the worst confidence interval at which any span extrapolated.
	// Transient and census drivers (droop census, CPM calibration, DVFS
	// staircase, QoS windows) ignore the flag — they measure exactly the
	// telemetry a fast-forward freezes.
	Sampled bool
	// TargetCI is the sampled lane's relative confidence-interval target
	// (half-width / mean) that must close before the governor extrapolates;
	// 0 selects the default 0.01 (1%).
	TargetCI float64
	// sampleStats collects governor outcomes across every span of one
	// experiment run; Registry's instrumentation installs it and stamps
	// each headline Stat's CI from the aggregate. Nil is a valid sink.
	sampleStats *sample.RunStats
}

// DefaultOptions returns full-fidelity settings.
func DefaultOptions() Options {
	return Options{Seed: 20151205, SettleSec: 2.5, MeasureSec: 1.0, WorkScale: 0.2}
}

// QuickOptions returns reduced-fidelity settings for tests.
func QuickOptions() Options {
	return Options{Seed: 20151205, SettleSec: 1.2, MeasureSec: 0.5, WorkScale: 0.05, Quick: true}
}

// pool returns the worker pool the options select for sweep fan-out.
func (o Options) pool() *parallel.Pool { return parallel.NewPool(o.Workers) }

// dcNodes returns the datacenter sweep's fleet size.
func (o Options) dcNodes() int {
	if o.Nodes > 0 {
		return o.Nodes
	}
	return 4
}

// dcJobCounts returns the utilization sweep for a fleet of n nodes,
// reproducing the historical {1,2,4,6,8} (Quick: {2,4}) at n=4. Counts
// are clamped to at least one job and deduplicated for tiny fleets.
func (o Options) dcJobCounts() []int {
	n := o.dcNodes()
	raw := []int{n / 4, n / 2, n, n * 3 / 2, n * 2}
	if o.Quick {
		raw = []int{n / 2, n}
	}
	var counts []int
	for _, j := range raw {
		if j < 1 {
			j = 1
		}
		if len(counts) == 0 || counts[len(counts)-1] != j {
			counts = append(counts, j)
		}
	}
	return counts
}

// steady holds steady-state averages of one chip measurement.
type steady struct {
	PowerW      float64
	Freq0MHz    float64
	UndervoltMV float64
	SetPointMV  float64
	TotalMIPS   float64
	CurrentA    float64
	// PassiveMV is the loadline + shared IR drop estimated from the VRM
	// current sensor, the paper's "heuristic equation" (§4.3).
	PassiveMV float64
	// Drop0MV is core 0's total measured drop.
	Drop0MV float64
	// Breakdown0 is core 0's averaged decomposition.
	Breakdown0 chip.DropBreakdown
}

// chipConfig returns the calibrated chip configuration at the options'
// fidelity: the lumped plane by default, the mesh lane when o.Mesh is set.
func (o Options) chipConfig(name string, seed uint64) chip.Config {
	cfg := chip.DefaultConfig(name, seed)
	if o.Mesh {
		cfg = cfg.WithMesh()
	}
	cfg.Exact = o.Exact
	return cfg
}

// serverConfig is chipConfig's server-level counterpart.
func (o Options) serverConfig(seed uint64) server.Config {
	cfg := server.DefaultConfig(seed)
	if o.Mesh {
		cfg.ChipConfig = cfg.ChipConfig.WithMesh()
	}
	cfg.ChipConfig.Exact = o.Exact
	return cfg
}

// nodeConfig is chipConfig's cluster-node counterpart.
func (o Options) nodeConfig(seed uint64) cluster.NodeConfig {
	nc := cluster.DefaultNodeConfig(seed)
	if o.Mesh {
		nc.Server.ChipConfig = nc.Server.ChipConfig.WithMesh()
	}
	nc.Server.ChipConfig.Exact = o.Exact
	return nc
}

// newChip acquires the calibrated single-socket chip for chip-local
// experiments — pooled and Reset when the arena has one of this shape,
// freshly built otherwise. Drivers release it with releaseChip when the
// point's measurement is done.
func newChip(o Options, tag string) *chip.Chip {
	cfg := o.chipConfig("P0", o.Seed^hash(tag))
	cfg.Recorder = o.Recorder.Shard("chip/" + tag)
	return acquireChip(cfg)
}

func hash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// placeThreads puts n endless threads of the workload on cores 0..n-1,
// matching the paper's taskset methodology of activating cores in
// succession.
func placeThreads(c *chip.Chip, d workload.Descriptor, n int) {
	for i := 0; i < n; i++ {
		c.Place(i, workload.NewThread(d, 1e9, nil))
	}
}

// measureSpan drives the chip over spanSec on the multi-rate path, calling
// sample(dt) with each segment's duration after it lands. Averages built as
// sum(value*dt)/span are time-weighted, so a single macro leap contributes
// the same weight as the micro-steps it replaces. It returns the covered
// span (== spanSec up to float residue, never less than one step).
func measureSpan(c *chip.Chip, spanSec float64, sample func(dt float64)) float64 {
	if spanSec < chip.DefaultStepSec {
		spanSec = chip.DefaultStepSec
	}
	covered := 0.0
	for remaining := spanSec; remaining > settleEps; {
		dt := c.Advance(remaining)
		remaining -= dt
		covered += dt
		sample(dt)
	}
	return covered
}

// settleEps mirrors chip.Settle's loop residue.
const settleEps = 1e-9

// governor builds the sampling governor for one measurement target, or nil
// when the options run exact/detailed. Each sweep point gets its own
// governor (its decisions are a pure function of that point's state, which
// keeps the bit-identical-at-any-worker-count contract); they all fold
// outcomes into the run-wide sampleStats sink.
func (o Options) governor(t sample.Target) *sample.Governor {
	if !o.Sampled {
		return nil
	}
	return sample.New(t, sample.Config{TargetRelCI: o.TargetCI, Stats: o.sampleStats})
}

// measureSpan routes a chip measurement span through the sampling governor
// when the options select it, and through the detailed multi-rate path
// otherwise. Observers see fast-forwarded spans as one wide dt at frozen
// sensors, so time-weighted sums stay correctly normalized.
func (o Options) measureSpan(c *chip.Chip, spanSec float64, fn func(dt float64)) float64 {
	if g := o.governor(c); g != nil {
		if spanSec < chip.DefaultStepSec {
			spanSec = chip.DefaultStepSec
		}
		return g.Run(spanSec, fn)
	}
	return measureSpan(c, spanSec, fn)
}

// serverMeasureSpan is measureSpan's server-level counterpart.
func (o Options) serverMeasureSpan(s *server.Server, spanSec float64, fn func(dt float64)) float64 {
	if g := o.governor(s); g != nil {
		if spanSec < chip.DefaultStepSec {
			spanSec = chip.DefaultStepSec
		}
		return g.Run(spanSec, fn)
	}
	return serverMeasureSpan(s, spanSec, fn)
}

// measureChip settles the chip and time-averages its sensors over the
// measurement span.
func measureChip(o Options, c *chip.Chip) steady {
	c.Settle(o.SettleSec)
	var s steady
	// The passive-drop heuristic needs the shared-path resistance; the
	// paper verified its equation against hardware, we read the model's
	// own constants.
	sharedMilliohm := chip.DefaultConfig("", 0).LoadlineMilliohm + 0.28
	k := o.measureSpan(c, o.MeasureSec, func(dt float64) {
		s.PowerW += float64(c.ChipPower()) * dt
		s.Freq0MHz += float64(c.CoreFreq(0)) * dt
		s.UndervoltMV += float64(c.UndervoltMV()) * dt
		s.SetPointMV += float64(c.SetPoint()) * dt
		s.TotalMIPS += float64(c.TotalMIPS()) * dt
		s.CurrentA += float64(c.Rail().SenseCurrent()) * dt
		s.PassiveMV += float64(c.Rail().SenseCurrent()) * sharedMilliohm * dt
		s.Drop0MV += c.TotalDropMV(0) * dt
		b := c.Breakdown(0)
		s.Breakdown0.LoadlineMV += b.LoadlineMV * dt
		s.Breakdown0.IRDropMV += b.IRDropMV * dt
		s.Breakdown0.TypicalDidtMV += b.TypicalDidtMV * dt
		s.Breakdown0.WorstDidtMV += b.WorstDidtMV * dt
	})
	s.PowerW /= k
	s.Freq0MHz /= k
	s.UndervoltMV /= k
	s.SetPointMV /= k
	s.TotalMIPS /= k
	s.CurrentA /= k
	s.PassiveMV /= k
	s.Drop0MV /= k
	s.Breakdown0.LoadlineMV /= k
	s.Breakdown0.IRDropMV /= k
	s.Breakdown0.TypicalDidtMV /= k
	s.Breakdown0.WorstDidtMV /= k
	return s
}

// chipSteady builds a chip, loads n threads of the workload, sets the mode
// and measures.
func chipSteady(o Options, name string, n int, mode firmware.Mode) steady {
	tag := fmt.Sprintf("%s/%d/%v", name, n, mode)
	c := newChip(o, tag)
	placeThreads(c, workload.MustGet(name), n)
	c.SetMode(mode)
	s := measureChip(o, c)
	releaseChip(c)
	return s
}

// runResult is a run-to-completion outcome.
type runResult struct {
	Seconds float64
	EnergyJ float64
	// AvgPowerW is EnergyJ / Seconds.
	AvgPowerW float64
}

// stepQuantize rounds a run-to-completion span up to the micro-step grid.
// The exact lane can only observe completion at step boundaries, while the
// macro lane's completion horizon lands exactly on the continuous finish
// line; quantizing keeps both lanes reporting the same clock.
func stepQuantize(sec float64) float64 {
	return math.Ceil(sec/chip.DefaultStepSec-1e-6) * chip.DefaultStepSec
}

// runChipToCompletion runs n threads of a fixed-size problem on one chip.
// The chip settles under load first and each thread's work budget is then
// reset, so measured time reflects steady operation and is not biased by
// work retired during settling.
func runChipToCompletion(o Options, name string, n int, mode firmware.Mode) runResult {
	tag := fmt.Sprintf("run/%s/%d/%v", name, n, mode)
	c := newChip(o, tag)
	d := workload.MustGet(name)
	per := workload.SplitWork(d, n) * o.WorkScale
	threads := make([]*workload.Thread, n)
	for i := 0; i < n; i++ {
		threads[i] = workload.NewThread(d, 1e9, nil)
		c.Place(i, threads[i])
	}
	c.SetMode(mode)
	c.Settle(o.SettleSec)
	for _, th := range threads {
		th.Reset(per)
	}
	c.ResetEnergy()
	start := c.Time()
	if g := o.governor(c); g != nil {
		// SampleHint bounds every fast-forward one part in 1e9 short of the
		// nearest thread completion, so the governor lands on the finish
		// line with the same precision as the detailed horizon.
		g.RunUntil(c.AllDone, 3600, nil)
		if !c.AllDone() {
			panic(fmt.Sprintf("experiments: %s with %d threads did not finish in an hour of simulated time", name, n))
		}
	} else {
		for !c.AllDone() {
			// The horizon includes thread completion, so a settled chip
			// leaps straight to (and never past) the finish line.
			c.Advance(1)
			if c.Time()-start > 3600 {
				panic(fmt.Sprintf("experiments: %s with %d threads did not finish in an hour of simulated time", name, n))
			}
		}
	}
	sec := stepQuantize(c.Time() - start)
	res := runResult{Seconds: sec, EnergyJ: c.EnergyJ(), AvgPowerW: c.EnergyJ() / sec}
	releaseChip(c)
	return res
}

// serverRun runs a job to completion on the two-socket server under the
// given placement/gating schedule and guardband mode.
func serverRun(o Options, tag string, d workload.Descriptor, placements []server.Placement, keepOn []int, mode firmware.Mode) runResult {
	cfg := o.serverConfig(o.Seed ^ hash(tag))
	cfg.Recorder = o.Recorder.Shard("server/" + tag)
	s := acquireServer(cfg)
	j := s.MustSubmit("j", d, placements, 1e9)
	s.GateUnloadedCores(keepOn...)
	s.SetMode(mode)
	s.Settle(o.SettleSec)
	// Reset each thread to the measured work budget so settling progress
	// does not bias the schedule comparison.
	n := len(placements)
	per := d.WorkGInst * o.WorkScale / (float64(n) * d.ParallelEfficiency(n))
	for _, th := range j.Threads {
		th.Reset(per)
	}
	s.ResetEnergy()
	var elapsed float64
	var done bool
	if g := o.governor(s); g != nil {
		start := s.Time()
		g.RunUntil(s.AllDone, 3600, nil)
		elapsed, done = s.Time()-start, s.AllDone()
	} else {
		elapsed, done = s.RunUntilDone(3600)
	}
	if !done {
		panic(fmt.Sprintf("experiments: %s did not finish in an hour of simulated time", tag))
	}
	elapsed = stepQuantize(elapsed)
	res := runResult{Seconds: elapsed, EnergyJ: s.TotalEnergyJ(), AvgPowerW: s.TotalEnergyJ() / elapsed}
	releaseServer(s)
	return res
}

// serverSteady measures the server's steady totals under a schedule with
// endless work.
func serverSteady(o Options, tag string, d workload.Descriptor, placements []server.Placement, keepOn []int, mode firmware.Mode) (totalPowerW float64, undervolts []float64) {
	cfg := o.serverConfig(o.Seed ^ hash(tag))
	cfg.Recorder = o.Recorder.Shard("server/" + tag)
	s := acquireServer(cfg)
	s.MustSubmit("j", d, placements, 1e9)
	s.GateUnloadedCores(keepOn...)
	s.SetMode(mode)
	s.Settle(o.SettleSec)
	uv := make([]float64, s.Sockets())
	var power float64
	k := o.serverMeasureSpan(s, o.MeasureSec, func(dt float64) {
		power += float64(s.TotalPower()) * dt
		for si := 0; si < s.Sockets(); si++ {
			uv[si] += float64(s.Chip(si).UndervoltMV()) * dt
		}
	})
	for si := range uv {
		uv[si] /= k
	}
	releaseServer(s)
	return power / k, uv
}

// serverMeasureSpan is measureSpan for a whole server.
func serverMeasureSpan(s *server.Server, spanSec float64, sample func(dt float64)) float64 {
	if spanSec < chip.DefaultStepSec {
		spanSec = chip.DefaultStepSec
	}
	covered := 0.0
	for remaining := spanSec; remaining > settleEps; {
		dt := s.Advance(remaining)
		remaining -= dt
		covered += dt
		sample(dt)
	}
	return covered
}

// improvementPct returns (base-new)/base in percent.
func improvementPct(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - new) / base * 100
}

// meanOf applies f over the inputs and averages.
func meanOf(xs []float64) float64 { return stats.Mean(xs) }

// coreCounts returns the active-core sweep, reduced under Quick.
func (o Options) coreCounts() []int {
	if o.Quick {
		return []int{1, 4, 8}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8}
}

// nomV returns the nominal voltage for percentage normalization.
func nomV() units.Millivolt { return chip.DefaultConfig("", 0).Law.VNom }
