package main

import (
	"fmt"
	"strings"
	"time"

	"agsim/internal/chip"
	"agsim/internal/cpm"
	"agsim/internal/didt"
	"agsim/internal/dpll"
	"agsim/internal/firmware"
	"agsim/internal/pdn"
	"agsim/internal/power"
	"agsim/internal/rng"
	"agsim/internal/units"
	"agsim/internal/vrm"
	"agsim/internal/workload"
)

// The kernel phase splits one exact-lane chip step into its stages. For a
// dozen of exact-grid's chips it settles the chip, reads each core's
// operating point through the chip's public getters, times every stage's
// public function on stand-alone objects at those points, and times
// chip.Step itself. Weighting each stage's time by its calls per step
// (from the chip's mode and core states) gives the stage's share of a
// step; what the stages do not cover is printed as the residual.

const (
	kernelChips      = 12
	kernelStageCalls = 4096
	kernelStepCalls  = 1024
	kernelReps       = 5
)

// Sinks keep the timed calls from being optimized away.
var (
	sinkW units.Watt
	sinkV units.Millivolt
	sinkF units.Megahertz
	sinkI int
	sinkS didt.Sample
	sinkD []units.Millivolt
)

// kernelRow is one stage's cost: ns per call, calls per chip step, and
// their product, averaged over the kernel chips.
type kernelRow struct {
	Stage        string  `json:"stage"`
	NS           float64 `json:"ns"`
	CallsPerStep float64 `json:"calls_per_step"`
	NSPerStep    float64 `json:"ns_per_step"`
}

// kernelResult is the kernel phase's table and metrics.
type kernelResult struct {
	Rows       []kernelRow `json:"rows"`
	StepNS     float64     `json:"step_ns"`
	ResidualNS float64     `json:"residual_ns"`
	metrics    []metric
}

// perCall times fn over calls calls, kernelReps times, and returns the
// median ns per call less the loop's own per-call cost.
func perCall(calls int, fn func(i int)) float64 {
	samples := make([]float64, 0, kernelReps)
	for r := 0; r < kernelReps; r++ {
		t := time.Now()
		for i := 0; i < calls; i++ {
			fn(i)
		}
		samples = append(samples, float64(time.Since(t).Nanoseconds())/float64(calls))
	}
	return pct(samples, 0.5)
}

// coreOP is one core's settled operating point.
type coreOP struct {
	state      power.CoreState
	vdc, vmin  units.Millivolt
	f          units.Megahertz
	temp       units.Celsius
	act, util  float64
	current    units.Ampere
	smt        float64
	threads    []*workload.Thread
	fmaxTarget units.Megahertz
}

// stage is one timed stage function with its calls per chip step.
type stage struct {
	name  string
	calls float64
	fn    func(i int)
}

// kernelStagesOf reads the settled chip's operating point and builds a
// timed call for every stage at it.
func kernelStagesOf(c *chip.Chip, cfg chip.Config, seed uint64) []stage {
	law := cfg.Law
	n := c.Cores()
	ops := make([]coreOP, n)
	nonGated := 0.0
	var profiles []didt.Profile
	var threads []*workload.Thread
	var threadCore []int
	for i := range ops {
		co := c.Core(i)
		op := coreOP{state: co.State(), vdc: c.CoreVoltageDC(i), vmin: c.CoreVoltageMin(i), f: c.CoreFreq(i),
			temp: c.CoreTemperature(i), threads: co.Threads(), smt: float64(len(co.Threads()))}
		op.current = units.Current(c.CorePower(i), op.vdc)
		target := law.FMax(op.vmin - law.ResidualMV)
		if target > law.FNom {
			target = law.FNom
		}
		op.fmaxTarget = target
		if op.state != power.Gated {
			nonGated++
		}
		if op.state == power.Active {
			var p didt.Profile
			live := 0
			for _, th := range op.threads {
				if th.Done() {
					continue
				}
				live++
				op.act += th.ActivityNow()
				op.util += th.Desc.Utilization(op.f, 1, op.smt)
				p.TypicalMV = max(p.TypicalMV, th.Desc.DidtTypicalMV)
				p.WorstMV = max(p.WorstMV, th.Desc.DidtWorstMV)
				p.RatePerSec = max(p.RatePerSec, th.Desc.DroopRatePerSec)
				threads = append(threads, workload.NewThread(th.Desc, 1e9, nil))
				threadCore = append(threadCore, i)
			}
			if live > 0 {
				op.act /= float64(live)
				op.util = min(op.util, 1)
			}
			profiles = append(profiles, p)
		}
		ops[i] = op
	}
	currents := make([]units.Ampere, n)
	for i, op := range ops {
		currents[i] = op.current
	}
	railV := c.RailVoltage()
	uncoreI := units.Current(cfg.Power.Uncore(railV), railV)
	total := c.Current()
	mode := c.Controller().Mode()
	undervolt, overclock := 0.0, 0.0
	switch mode {
	case firmware.Undervolt:
		undervolt = nonGated
	case firmware.Overclock:
		overclock = nonGated
	}

	rail, err := vrm.NewRail("kernel", cfg.LoadlineMilliohm, law.VNom, law.VNom+50, cfg.RailMaxCurrent)
	if err != nil {
		panic(err)
	}
	rail.Command(c.SetPoint())
	plane, err := pdn.New(cfg.PDN)
	if err != nil {
		panic(err)
	}
	mp := pdn.DefaultMeshParams()
	mp.Cores = n
	mesh, err := pdn.SharedMesh(mp)
	if err != nil {
		panic(err)
	}
	drops := make([]units.Millivolt, n)
	noise := didt.New(cfg.Didt, rng.New(seed, "agbench/kernel/didt"))
	sensors := make([]*cpm.Sensor, n*chip.CPMsPerCore)
	for k := range sensors {
		sensors[k] = cpm.New(cfg.CPM, rng.New(seed, fmt.Sprintf("agbench/kernel/cpm%d", k)))
	}
	dplls := make([]*dpll.DPLL, n)
	for i := range dplls {
		dplls[i] = dpll.New(law)
		dplls[i].SetFreq(ops[i].f)
	}
	ctrl := firmware.NewController(law)
	ctrl.SetMode(mode)
	sticky := cpm.MaxValue
	for i := 0; i < n; i++ {
		for j := 0; j < chip.CPMsPerCore; j++ {
			sticky = min(sticky, c.CPMWindowSticky(i, j))
		}
	}
	reading := firmware.MarginReading{MinCPM: c.MinCPMSample(), MinStickyCPM: sticky,
		MVPerBit: c.CPMMVPerBit(0, 0), CurrentA: float64(c.Rail().SenseCurrent())}
	setPoint := c.SetPoint()

	return []stage{
		{"workload.thread_step", float64(len(threads)), func(i int) {
			k := i % len(threads)
			op := &ops[threadCore[k]]
			threads[k].Step(chip.DefaultStepSec, op.f, 1, op.smt)
		}},
		{"power.core", float64(n), func(i int) {
			op := &ops[i%n]
			sinkW = cfg.Power.Core(op.state, op.vdc, op.f, op.act, op.util, op.temp)
		}},
		{"vrm.output", 1, func(int) { sinkV = rail.Output(total) }},
		{"pdn.plane_drops", 1, func(int) { sinkD = plane.DropsInto(drops, currents, uncoreI) }},
		// The default lane runs the lumped plane; the mesh is the
		// fidelity lane's, timed at the same currents for comparison.
		{"pdn.mesh_drops", 0, func(int) { sinkD = mesh.DropsInto(drops, currents, uncoreI) }},
		{"didt.step", 1, func(int) { sinkS = noise.Step(chip.DefaultStepSec, profiles) }},
		{"vf.margin_mv", nonGated, func(i int) {
			op := &ops[i%n]
			sinkV = law.MarginMV(op.vmin, op.f)
		}},
		{"cpm.value", nonGated * chip.CPMsPerCore, func(i int) {
			k := i % len(sensors)
			op := &ops[k/chip.CPMsPerCore]
			sinkI = sensors[k].Value(op.vmin, op.f)
		}},
		{"dpll.track_margin", overclock, func(i int) { sinkF = dplls[i%n].TrackMargin(ops[i%n].vmin) }},
		{"vf.fmax", undervolt, func(i int) { sinkF = law.FMax(ops[i%n].vmin - law.ResidualMV) }},
		{"dpll.slew_toward", undervolt, func(i int) { sinkF = dplls[i%n].SlewToward(ops[i%n].fmaxTarget) }},
		{"firmware.voltage_command", chip.DefaultStepSec / firmware.TickSeconds, func(int) {
			sinkV = ctrl.VoltageCommand(setPoint, reading)
		}},
	}
}

// kernelPhase runs the stage split over the kernel chips, a spread of
// exact-grid's points, recording one span per timed batch.
func kernelPhase(l *lane, sc scale, seed uint64) kernelResult {
	pts := gridPoints(sc.gridPoints)
	stride := max(1, len(pts)/kernelChips)
	ns := map[string][]float64{}
	calls := map[string][]float64{}
	var steps, residuals []float64
	empty := perCall(kernelStageCalls, func(int) {})
	for p := 0; p < len(pts); p += stride {
		l.setOp(p)
		c, cfg := pointChip(l, pts[p], seed, true)
		c.Settle(gridSettleSec)
		covered := 0.0
		for _, st := range kernelStagesOf(c, cfg, seed) {
			layer, _, _ := strings.Cut(st.name, ".")
			s := l.begin(layer, st.name)
			v := max(0, perCall(kernelStageCalls, st.fn)-empty)
			l.end(s)
			ns[st.name] = append(ns[st.name], v)
			calls[st.name] = append(calls[st.name], st.calls)
			covered += v * st.calls
		}
		s := l.begin("chip", "chip.Step")
		step := perCall(kernelStepCalls, func(int) { c.Step(chip.DefaultStepSec) })
		l.end(s)
		steps = append(steps, step)
		residuals = append(residuals, step-covered)
	}
	var r kernelResult
	for _, name := range kernelStages {
		row := kernelRow{Stage: name, NS: mean(ns[name]), CallsPerStep: mean(calls[name])}
		for i, v := range ns[name] {
			row.NSPerStep += v * calls[name][i] / float64(len(ns[name]))
		}
		r.Rows = append(r.Rows, row)
		r.metrics = append(r.metrics, summarize(name+"_ns", "ns", "lower", ns[name]))
	}
	r.StepNS = mean(steps)
	r.ResidualNS = mean(residuals)
	r.metrics = append(r.metrics,
		summarize("chip.step_ns", "ns", "lower", steps),
		summarize("chip.step_residual_ns", "ns", "lower", residuals))
	return r
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
