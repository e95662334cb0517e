package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"agsim/internal/chip"
	"agsim/internal/experiments"
	"agsim/internal/firmware"
	"agsim/internal/fleet"
	"agsim/internal/health"
	"agsim/internal/obs"
	"agsim/internal/pdn"
	"agsim/internal/sample"
	"agsim/internal/server"
	"agsim/internal/snapshot"
	"agsim/internal/traffic"
	"agsim/internal/tsdb"
	"agsim/internal/workload"
)

// workers is the concurrency every workload runs at: the benchmark pins
// GOMAXPROCS=1 in its child processes and passes Workers: 1, so on a
// small shared host it times the program, not the scheduler or the
// program's threads contending with each other.
const workers = 1

// scale sizes the workloads. fullScale is what the benchmark measures;
// the smoke test runs smokeScale through the same code.
type scale struct {
	// experiments lists the paper workload's experiment ids; nil runs
	// every registered experiment.
	experiments []string
	// gridPoints caps the grid workloads' point count; 0 runs all 120.
	gridPoints int
	// nodes and epochs size fleet-serve; a checkpoint is taken every
	// checkpointEvery epochs and the replay starts from the one at
	// epochs/2.
	nodes, epochs, checkpointEvery int
}

var (
	fullScale  = scale{nodes: 64, epochs: 100, checkpointEvery: 10}
	smokeScale = scale{experiments: []string{"fig3"}, gridPoints: 4, nodes: 8, epochs: 4, checkpointEvery: 2}
)

// output is one checked simulated result.
type output struct {
	Key   string
	Value float64
}

// op is one timed unit of work: its host time, the simulated outputs it
// produced, and the panic it raised, if any.
type op struct {
	ms      float64
	err     error
	outputs []output
}

// pass is one run over a workload's whole input set.
type pass struct {
	// wallS is the pass's wall time without the host-clock probes; normS
	// is that time at nominal host speed.
	wallS, normS float64
	simSec       float64 // simulated seconds covered (chip-s or node-s); 0 for paper
	ops          []op
	// samples holds extra per-call timings (scrape, checkpoint, restore);
	// counts holds per-pass totals (cache hits, requests, lane residency).
	samples map[string][]float64
	counts  map[string]float64
	// verify, when set, is a post-timing correctness check of the pass
	// (fleet-serve's bit-identical replay).
	verify func() error
}

func newPass() *pass {
	return &pass{samples: map[string][]float64{}, counts: map[string]float64{}}
}

// outputs flattens the pass's outputs in op order.
func (p *pass) outputs() []output {
	var out []output
	for _, o := range p.ops {
		out = append(out, o.outputs...)
	}
	return out
}

// summary is the pass as its process reports it to the parent.
func (p *pass) summary() passSummary {
	ps := passSummary{WallS: p.wallS, NormS: p.normS, SimSec: p.simSec, Samples: p.samples, Counts: p.counts}
	for _, o := range p.ops {
		ps.OpMS = append(ps.OpMS, o.ms)
	}
	return ps
}

// env is what a pass runs with: the scale, the tracer and its lane (nil
// untraced), and the host clock (nil in traced passes).
type env struct {
	scale scale
	tr    *tracer
	lane  *lane
	clock *hostClock
}

// benchWorkload is one named workload of the benchmark.
type benchWorkload struct {
	name string
	why  string
	// run executes one pass at the given seed on the lane users run.
	run func(e *env, seed uint64) *pass
	// reference computes the outputs the goldens hold: the more detailed
	// lane where one exists.
	reference func(e *env, seed uint64) []output
	// refLane names the reference lane in golden files.
	refLane string
}

var workloads = []benchWorkload{
	{
		name: "paper",
		why:  "agsim report: all 20 registered experiments at DefaultOptions on the default macro lane",
		run: func(e *env, seed uint64) *pass {
			return paperPass(e, seed, false)
		},
		reference: func(e *env, seed uint64) []output {
			return paperPass(e, seed, true).outputs()
		},
		refLane: "exact lane (Options.Exact) at DefaultOptions",
	},
	{
		name: "exact-grid",
		why:  "120 chips on the 1 ms exact lane, 2.5 s settle + 5 s measure each: the step kernel with the macro leap bypassed",
		run: func(e *env, seed uint64) *pass {
			return gridPass(e, "exact-grid", seed, measureExact)
		},
		reference: func(e *env, seed uint64) []output {
			return gridPass(e, "exact-grid", seed, measureExact).outputs()
		},
		refLane: "exact lane (the workload's own lane)",
	},
	{
		name: "sampled-grid",
		why:  "the same 120 chips measured for 3600 s under the sampling governor: fast-forwards, step kernel only in detailed windows",
		run: func(e *env, seed uint64) *pass {
			return gridPass(e, "sampled-grid", seed, measureSampled)
		},
		reference: func(e *env, seed uint64) []output {
			return gridPass(e, "sampled-grid", seed, measureMacro).outputs()
		},
		refLane: "macro lane over the same 3600 s spans",
	},
	{
		name: "fleet-serve",
		why:  "64-node serving fleet under open-loop traffic with tsdb scrapes, health checks, checkpoints and a bit-identical replay",
		run: func(e *env, seed uint64) *pass {
			return servePass(e, seed)
		},
		reference: func(e *env, seed uint64) []output {
			return servePass(e, seed).outputs()
		},
		refLane: "default lane (the workload's own lane)",
	},
}

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// stackDepths is how many stack depths ops cycle over; see runOp.
const stackDepths = 64

// runOp runs op i and turns a panic into an error, so one failing op is
// counted instead of ending the run. Op i runs i%stackDepths padding
// frames deeper than op 0. The simulator's speed depends on where its
// stack frames fall: on the recording host, running the same exact-grid
// loop on the main goroutine or on a fresh one changed its pass time
// 1.8x. Cycling
// ops over depths that span more than a 4 KB page averages that effect,
// so a change that merely moves the call path does not move the result.
func runOp(i int, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	padStack(i%stackDepths, fn)
	return nil
}

var padSink byte

// padStack calls fn below n frames of about 90 bytes each.
//
//go:noinline
func padStack(n int, fn func()) {
	if n == 0 {
		fn()
		return
	}
	var pad [48]byte
	pad[n%len(pad)] = byte(n)
	padStack(n-1, fn)
	padSink += pad[(n+1)%len(pad)]
}

// paperExperiments returns the registered experiments the scale selects,
// in registry order.
func paperExperiments(sc scale) []experiments.Experiment {
	all := experiments.Registry()
	if sc.experiments == nil {
		return all
	}
	var out []experiments.Experiment
	for _, id := range sc.experiments {
		for _, x := range all {
			if x.ID == id {
				out = append(out, x)
			}
		}
	}
	return out
}

// paperPass runs every selected experiment once, as agsim report does.
// Each experiment is one op; its headline statistics are the outputs.
func paperPass(e *env, seed uint64, exact bool) *pass {
	p := newPass()
	o := experiments.DefaultOptions()
	o.Seed = seed
	o.Workers = workers
	o.Exact = exact
	_, hits0 := pdn.MeshCacheStats()
	start := e.clock.begin()
	root := e.lane.begin(benchLayer, "paper.pass")
	for i, x := range paperExperiments(e.scale) {
		e.lane.setOp(i)
		var rep experiments.Report
		s := e.lane.begin("experiments", "experiments."+x.ID)
		t := time.Now()
		err := runOp(i, func() { rep = x.Run(o) })
		d := time.Since(t)
		e.lane.end(s)
		outs := make([]output, 0, len(rep.Headline))
		for _, st := range rep.Headline {
			outs = append(outs, output{Key: x.ID + "/" + st.Name, Value: st.Value})
		}
		p.ops = append(p.ops, op{ms: ms(d), err: err, outputs: outs})
	}
	e.lane.end(root)
	p.wallS, p.normS = e.clock.finish(start)
	_, hits1 := pdn.MeshCacheStats()
	p.counts["pdn.mesh_cache_hits"] = float64(hits1 - hits0)
	return p
}

// gridPoint is one chip of the grid workloads.
type gridPoint struct {
	desc  workload.Descriptor
	cores int
	mode  firmware.Mode
	tag   string
}

// gridPoints is Fig. 9's ten workloads x active cores {1,2,4,8} x
// guardband modes {Static, Undervolt, Overclock}, capped at n (0 = all).
func gridPoints(n int) []gridPoint {
	var pts []gridPoint
	for _, d := range workload.Fig9Workloads() {
		for _, k := range []int{1, 2, 4, 8} {
			for _, m := range []firmware.Mode{firmware.Static, firmware.Undervolt, firmware.Overclock} {
				pts = append(pts, gridPoint{desc: d, cores: k, mode: m, tag: fmt.Sprintf("%s/%d/%v", d.Name, k, m)})
			}
		}
	}
	if n > 0 && n < len(pts) {
		pts = pts[:n]
	}
	return pts
}

// fnv64 hashes a point tag into its seed salt.
func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// measurement selects how a grid point is measured after settling.
type measurement int

const (
	// measureExact: the 1 ms exact lane, 5 s measured through chip.Advance.
	measureExact measurement = iota
	// measureSampled: the default lane, 3600 s under sample.Governor.Run.
	measureSampled
	// measureMacro: the default lane, 3600 s through chip.Advance — the
	// sampled lane's reference.
	measureMacro
)

const (
	gridSettleSec  = 2.5
	exactMeasure   = 5.0
	sampledMeasure = 3600.0
)

// pointResult is one grid point's outputs and governor residency.
type pointResult struct {
	op                   op
	simSec               float64
	detailedSec, fastSec float64
}

// pointChip builds the point's chip, seeded from its tag, with its threads
// placed and its guardband mode set.
func pointChip(l *lane, pt gridPoint, seed uint64, exact bool) (*chip.Chip, chip.Config) {
	cfg := chip.DefaultConfig("P0", seed^fnv64(pt.tag))
	cfg.Exact = exact
	s := l.begin("chip", "chip.New")
	c := chip.MustNew(cfg)
	l.end(s)
	for i := 0; i < pt.cores; i++ {
		c.Place(i, workload.NewThread(pt.desc, 1e9, nil))
	}
	c.SetMode(pt.mode)
	return c, cfg
}

// measurePoint builds, settles and measures one chip. The outputs are the
// time-weighted means of chip power, core-0 frequency and undervolt.
func measurePoint(l *lane, i int, pt gridPoint, seed uint64, m measurement) pointResult {
	var r pointResult
	start := time.Now()
	r.op.err = runOp(i, func() {
		c, _ := pointChip(l, pt, seed, m == measureExact)
		s := l.begin("chip", "chip.Settle")
		c.Settle(gridSettleSec)
		l.end(s)
		var power, freq, uv, covered float64
		observe := func(dt float64) {
			power += float64(c.ChipPower()) * dt
			freq += float64(c.CoreFreq(0)) * dt
			uv += float64(c.UndervoltMV()) * dt
			covered += dt
		}
		switch m {
		case measureSampled:
			g := sample.New(c, sample.Config{})
			s = l.begin("sample", "sample.Run")
			g.Run(sampledMeasure, observe)
			l.end(s)
			r.detailedSec, r.fastSec = g.DetailedSec(), g.FastSec()
		default:
			span := exactMeasure
			if m == measureMacro {
				span = sampledMeasure
			}
			s = l.begin("chip", "chip.Advance")
			for rem := span; rem > 1e-9; {
				dt := c.Advance(rem)
				rem -= dt
				observe(dt)
			}
			l.end(s)
		}
		r.simSec = gridSettleSec + covered
		r.op.outputs = []output{
			{pt.tag + "/power_w", power / covered},
			{pt.tag + "/freq0_mhz", freq / covered},
			{pt.tag + "/undervolt_mv", uv / covered},
		}
	})
	r.op.ms = ms(time.Since(start))
	return r
}

// gridPass measures every grid point in turn. One op is one point.
func gridPass(e *env, name string, seed uint64, m measurement) *pass {
	p := newPass()
	pts := gridPoints(e.scale.gridPoints)
	res := make([]pointResult, len(pts))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := e.clock.begin()
	root := e.lane.begin(benchLayer, name+".pass")
	for i, pt := range pts {
		e.lane.setOp(i)
		res[i] = measurePoint(e.lane, i, pt, seed, m)
	}
	e.lane.end(root)
	p.wallS, p.normS = e.clock.finish(start)
	runtime.ReadMemStats(&ms1)
	var detailed, fast, full float64
	for _, r := range res {
		p.ops = append(p.ops, r.op)
		p.simSec += r.simSec
		detailed += r.detailedSec
		fast += r.fastSec
		if r.fastSec == 0 {
			full++
		}
	}
	switch m {
	case measureExact:
		steps := float64(len(pts)) * (gridSettleSec + exactMeasure) / chip.DefaultStepSec
		p.counts["chip.allocs_per_step"] = float64(ms1.Mallocs-ms0.Mallocs) / steps
	case measureSampled:
		p.counts["sample.detailed_frac"] = detailed / (detailed + fast)
		p.counts["sample.full_span_frac"] = full / float64(len(pts))
	}
	return p
}

// fleet-serve sizing: 0.25 s traffic epochs after a 2.5 s settle, offered
// load at 75% of the settled fleet's capacity.
const (
	serveEpochSec  = 0.25
	serveSettleSec = 2.5
	serveLoad      = 0.75
	serveDemand    = 0.4
	serveEventCap  = 256
)

// servePair is the checkpointed state: the fleet and the request
// generator, imaged together so the recorder tree they share restores as
// one.
type servePair struct {
	F *fleet.Fleet
	G *traffic.Generator
}

// buildServe constructs one serving fleet and its generator. Each pair
// owns a recorder tree, so a standby pair is the same shape as the live
// one and can take its images. rate <= 0 settles the fleet and derives
// the arrival rate from its capacity; a standby passes the live rate.
func buildServe(l *lane, sc scale, seed uint64, rate float64) (*servePair, *obs.Recorder, float64) {
	rec := obs.New("agbench", serveEventCap)
	rec.EnableTimeSeries(tsdb.CompactSpec())
	tmpl := server.DefaultConfig(seed)
	s := l.begin("fleet", "fleet.New")
	f := fleet.MustNew(fleet.Config{Nodes: sc.nodes, Template: tmpl, Workers: workers, Recorder: rec.Shard("fleet")})
	l.end(s)
	pl := make([]server.Placement, tmpl.Sockets*tmpl.CoresPerSocket)
	for c := range pl {
		pl[c] = server.Placement{Socket: c / tmpl.CoresPerSocket, Core: c % tmpl.CoresPerSocket}
	}
	ws := workload.MustGet("websearch")
	for i := 0; i < sc.nodes; i++ {
		f.Node(i).MustSubmit("serve", ws, pl, 1e9)
		f.Node(i).SetMode(firmware.Undervolt)
	}
	if rate <= 0 {
		s = l.begin("fleet", "fleet.Advance(settle)")
		f.Advance(serveSettleSec)
		l.end(s)
		f.ResetEnergy()
		var gips float64
		for i := 0; i < sc.nodes; i++ {
			gips += f.NodeMIPS(i) / 1000
		}
		rate = math.Max(1, math.Round(serveLoad*gips/float64(sc.nodes)/serveDemand))
	}
	period := float64(sc.epochs) * serveEpochSec
	g := traffic.New(traffic.Config{
		Nodes:            sc.nodes,
		RatePerSec:       rate,
		DemandGInst:      serveDemand,
		DiurnalAmplitude: 0.1,
		DiurnalPeriodSec: period,
		BurstRatePerSec:  0.2,
		BurstMeanSec:     0.5,
		BurstFactor:      1.25,
		QueueCap:         256,
		Seed:             seed,
		Recorder:         rec.Shard("traffic"),
	})
	return &servePair{F: f, G: g}, rec, rate
}

// serveEpoch is one op: read per-node capacity, admit the epoch's
// requests, advance the fleet to the epoch boundary.
func serveEpoch(l *lane, sp *servePair, caps []float64) {
	s := l.begin("fleet", "fleet.capacity_read")
	for i := range caps {
		caps[i] = math.Max(1, math.Round(sp.F.NodeMIPS(i)/1000))
	}
	l.end(s)
	s = l.begin("traffic", "traffic.Epoch")
	sp.G.Epoch(sp.F.Pool(), serveEpochSec, caps)
	l.end(s)
	s = l.begin("fleet", "fleet.Advance")
	sp.F.Advance(serveEpochSec)
	l.end(s)
}

// serveOutputs are the checked results of a serving run.
func serveOutputs(sc scale, sp *servePair) []output {
	sum := sp.G.Latency()
	prefix := fmt.Sprintf("%dx%d/", sc.nodes, sc.epochs)
	return []output{
		{prefix + "completed", float64(sum.Completed)},
		{prefix + "dropped", float64(sum.Dropped)},
		{prefix + "p50_s", sum.P50Sec},
		{prefix + "p95_s", sum.P95Sec},
		{prefix + "p99_s", sum.P99Sec},
		{prefix + "energy_j", sp.F.TotalEnergyJ()},
	}
}

// saveServe images the pair at its current time.
func saveServe(sp *servePair, seed uint64) ([]byte, error) {
	return snapshot.Save(sp, snapshot.Meta{Seed: seed, TimeSec: sp.F.Time()})
}

// servePass runs one observed serving session. The host loop is closed:
// each call starts when the previous returns, and scrapes block the
// simulation the way amesterd's mutex does. Arrivals are open-loop in
// simulated time. One op is one epoch.
func servePass(e *env, seed uint64) *pass {
	p := newPass()
	sc := e.scale
	start := e.clock.begin()
	root := e.lane.begin(benchLayer, "fleet-serve.pass")
	live, rec, rate := buildServe(e.lane, sc, seed, 0)
	standby, _, _ := buildServe(e.lane, sc, seed, rate)
	caps := make([]float64, sc.nodes)
	var mid []byte
	var failed error
	for ep := 1; ep <= sc.epochs; ep++ {
		e.lane.setOp(ep - 1)
		t := time.Now()
		failed = runOp(ep-1, func() { serveEpoch(e.lane, live, caps) })
		p.ops = append(p.ops, op{ms: ms(time.Since(t)), err: failed})
		if failed != nil {
			break
		}
		if ep%2 == 0 {
			t = time.Now()
			s := e.lane.begin("obs", "obs.Snapshot")
			lg := rec.Snapshot()
			e.lane.end(s)
			s = e.lane.begin("tsdb", "tsdb.MergedSeries")
			lg.MergedSeries("power_w")
			e.lane.end(s)
			s = e.lane.begin("health", "health.Evaluate")
			health.Evaluate(&lg, health.Default())
			e.lane.end(s)
			p.samples["read_ms"] = append(p.samples["read_ms"], ms(time.Since(t)))
		}
		if ep%sc.checkpointEvery != 0 {
			continue
		}
		t = time.Now()
		s := e.lane.begin("snapshot", "snapshot.Save")
		img, err := saveServe(live, seed)
		e.lane.end(s)
		p.samples["checkpoint_ms"] = append(p.samples["checkpoint_ms"], ms(time.Since(t)))
		if err == nil {
			t = time.Now()
			s = e.lane.begin("snapshot", "snapshot.Load")
			_, err = snapshot.Load(img, standby)
			e.lane.end(s)
			p.samples["restore_ms"] = append(p.samples["restore_ms"], ms(time.Since(t)))
			p.samples["snapshot.image_mb"] = append(p.samples["snapshot.image_mb"], float64(len(img))/1e6)
		}
		if err != nil {
			failed = fmt.Errorf("checkpoint at epoch %d: %w", ep, err)
			p.ops[len(p.ops)-1].err = failed
			break
		}
		if ep == sc.epochs/2 {
			mid = img
		}
	}
	e.lane.end(root)
	p.wallS, p.normS = e.clock.finish(start)
	p.simSec = float64(sc.nodes) * (serveSettleSec + float64(len(p.ops))*serveEpochSec)
	if failed != nil {
		return p
	}
	p.ops[len(p.ops)-1].outputs = serveOutputs(sc, live)
	sum := live.G.Latency()
	arrivals := float64(sum.Completed + sum.Dropped)
	p.counts["traffic.requests"] = arrivals
	p.counts["traffic.shed_frac"] = float64(sum.Dropped) / arrivals
	lg := rec.Snapshot()
	p.counts["chip.micro_steps"] = float64(lg.TotalCounter(obs.CMicroSteps))
	p.counts["chip.macro_steps"] = float64(lg.TotalCounter(obs.CMacroSteps))
	p.verify = func() error { return replayServe(sc, seed, live, standby, mid) }
	return p
}

// replayServe restores the mid-run checkpoint into the standby pair,
// replays the second half of the session without scrapes, and requires
// the result to image byte-for-byte like the live run's final state.
func replayServe(sc scale, seed uint64, live, standby *servePair, mid []byte) error {
	if mid == nil {
		return fmt.Errorf("replay: no checkpoint at epoch %d", sc.epochs/2)
	}
	if _, err := snapshot.Load(mid, standby); err != nil {
		return fmt.Errorf("replay: load: %w", err)
	}
	caps := make([]float64, sc.nodes)
	for ep := sc.epochs/2 + 1; ep <= sc.epochs; ep++ {
		serveEpoch(nil, standby, caps)
	}
	want, err := saveServe(live, seed)
	if err != nil {
		return fmt.Errorf("replay: save live: %w", err)
	}
	got, err := saveServe(standby, seed)
	if err != nil {
		return fmt.Errorf("replay: save replay: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("replay from t=%gs is not bit-identical to the live run (%d vs %d bytes)",
			float64(sc.epochs/2)*serveEpochSec, len(got), len(want))
	}
	return nil
}
