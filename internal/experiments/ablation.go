package experiments

import (
	"fmt"

	"agsim/internal/firmware"
	"agsim/internal/parallel"
	"agsim/internal/server"
	"agsim/internal/stress"
	"agsim/internal/trace"
	"agsim/internal/workload"
)

// This file holds ablation studies for the design choices DESIGN.md calls
// out: each sweeps one model parameter and reports how the reproduction's
// headline behaviours respond. They are not paper figures; they justify
// the calibration and expose the sensitivity of the conclusions.

// AblationLoadReserveResult sweeps the firmware's current-proportional
// transient reserve — the constant that produces the paper's Fig. 10b law
// (undervolt falls ~1 mV per mV of passive drop).
type AblationLoadReserveResult struct {
	// Table columns: reserve mΩ, 1-core saving %, 8-core saving %,
	// loadline-borrowing improvement % at 8 cores.
	Table *trace.Table
}

// AblationLoadReserve runs the reserve sweep.
func AblationLoadReserve(o Options) AblationLoadReserveResult {
	res := AblationLoadReserveResult{
		Table: trace.NewTable("Ablation: firmware load reserve (mΩ)",
			"saving@1core %", "saving@8core %", "LLB imp@8 %"),
	}
	reserves := []float64{0, 0.5, 1.08, 1.6}
	if o.Quick {
		// Keep the endpoints that bracket the behaviour: no reserve, the
		// tuned value, and an over-reserve that exhausts the undervolt
		// budget at 8-core current (130 mV authority - 1.6 mΩ * ~105 A < 0).
		reserves = []float64{0, 1.08, 1.6}
	}
	const bench = "raytrace"
	d := workload.MustGet(bench)
	type row struct{ s1, s8, llb float64 }
	rows := parallel.Sweep(o.pool(), reserves, func(_ int, k float64) row {
		saving := func(n int) float64 {
			static := measureWithReserve(o, bench, n, firmware.Static, k)
			uv := measureWithReserve(o, bench, n, firmware.Undervolt, k)
			return improvementPct(static, uv)
		}
		llb := func() float64 {
			plC, keepC := fig12Schedule(8, false)
			plB, keepB := fig12Schedule(8, true)
			cons := serverSteadyWithReserve(o, fmt.Sprintf("abl/cons/%.2f", k), d, plC, keepC, k)
			borr := serverSteadyWithReserve(o, fmt.Sprintf("abl/borr/%.2f", k), d, plB, keepB, k)
			return improvementPct(cons, borr)
		}
		return row{s1: saving(1), s8: saving(8), llb: llb()}
	})
	for i, k := range reserves {
		res.Table.AddRow(fmt.Sprintf("k=%.2f", k), rows[i].s1, rows[i].s8, rows[i].llb)
	}
	return res
}

func measureWithReserve(o Options, name string, n int, mode firmware.Mode, reserve float64) float64 {
	tag := fmt.Sprintf("abl-reserve/%s/%d/%v/%.2f", name, n, mode, reserve)
	c := newChip(o, tag)
	c.Controller().LoadReserveMilliohm = reserve
	placeThreads(c, workload.MustGet(name), n)
	c.SetMode(mode)
	p := measureChip(o, c).PowerW
	releaseChip(c)
	return p
}

func serverSteadyWithReserve(o Options, tag string, d workload.Descriptor, pl []server.Placement, keepOn []int, reserve float64) float64 {
	cfg := o.serverConfig(o.Seed ^ hash(tag))
	cfg.Recorder = o.Recorder.Shard("server/" + tag)
	s := acquireServer(cfg)
	for si := 0; si < s.Sockets(); si++ {
		s.Chip(si).Controller().LoadReserveMilliohm = reserve
	}
	s.MustSubmit("j", d, pl, 1e9)
	s.GateUnloadedCores(keepOn...)
	s.SetMode(firmware.Undervolt)
	s.Settle(o.SettleSec)
	var power float64
	k := serverMeasureSpan(s, o.MeasureSec, func(dt float64) {
		power += float64(s.TotalPower()) * dt
	})
	releaseServer(s)
	return power / k
}

// AblationDPLLAuthorityResult sweeps the DPLL's fast-slew droop authority:
// without the 7%-in-10ns reaction the undervolted chip cannot survive
// worst-case di/dt, which is the paper's core safety argument for adaptive
// guardbanding.
type AblationDPLLAuthorityResult struct {
	// Table columns: authority fraction, droops absorbed, timing
	// violations under the virus stressmark in undervolt mode.
	Table *trace.Table
	// ViolationsWithoutSlew and ViolationsWithSlew bracket the effect.
	ViolationsWithoutSlew, ViolationsWithSlew int
}

// AblationDPLLAuthority runs the authority sweep.
func AblationDPLLAuthority(o Options) AblationDPLLAuthorityResult {
	res := AblationDPLLAuthorityResult{
		Table: trace.NewTable("Ablation: DPLL fast-slew authority under virus stress",
			"absorbed", "violations"),
	}
	authorities := []float64{0.005, 0.035, 0.07}
	seconds := 8.0
	if o.Quick {
		authorities = []float64{0.005, 0.07}
		seconds = 3
	}
	type droopRow struct{ absorbed, violations int }
	rows := parallel.Sweep(o.pool(), authorities, func(_ int, a float64) droopRow {
		cfg := o.chipConfig("abl-dpll", o.Seed)
		cfg.Recorder = o.Recorder.Shard(fmt.Sprintf("chip/abl-dpll/%g", a))
		c := acquireChip(cfg)
		c.SetDroopSlewAuthority(a)
		d := stress.Synthesize(stress.Virus)
		for i := 0; i < c.Cores(); i++ {
			c.Place(i, workload.NewThread(d, 1e9, nil))
		}
		c.SetMode(firmware.Undervolt)
		c.Settle(2)
		c.ResetDroopStats()
		// The droop census rides the multi-rate path: worst-case events
		// come from the time-indexed schedule, so the counts match the
		// 1 ms reference exactly.
		for remaining := seconds; remaining > settleEps; {
			remaining -= c.Advance(remaining)
		}
		absorbed, violations := c.DroopStats()
		releaseChip(c)
		return droopRow{absorbed: absorbed, violations: violations}
	})
	for i, a := range authorities {
		res.Table.AddRow(fmt.Sprintf("slew=%.3f", a), float64(rows[i].absorbed), float64(rows[i].violations))
		switch a {
		case authorities[0]:
			res.ViolationsWithoutSlew = rows[i].violations
		case 0.07:
			res.ViolationsWithSlew = rows[i].violations
		}
	}
	return res
}

// AblationCPMVariationResult sweeps the per-sensor process-variation
// spread: the worst of 40 calibration-offset sensors is what the firmware
// follows, so more spread costs undervolt depth.
type AblationCPMVariationResult struct {
	// Table columns: offset spread mV, mean undervolt mV at 4 active
	// cores.
	Table *trace.Table
	// UndervoltTight and UndervoltWide bracket the effect.
	UndervoltTight, UndervoltWide float64
}

// AblationCPMVariation runs the spread sweep.
func AblationCPMVariation(o Options) AblationCPMVariationResult {
	res := AblationCPMVariationResult{
		Table: trace.NewTable("Ablation: CPM calibration-offset spread", "undervolt mV"),
	}
	spreads := []float64{0, 4, 10}
	if o.Quick {
		spreads = []float64{0, 10}
	}
	uvs := parallel.Sweep(o.pool(), spreads, func(_ int, sp float64) float64 {
		tag := fmt.Sprintf("abl-cpm/%g", sp)
		cfg := o.chipConfig("abl-cpm", o.Seed)
		cfg.CPM.PathOffsetSpreadMV = sp
		cfg.Recorder = o.Recorder.Shard("chip/" + tag)
		c := acquireChip(cfg)
		placeThreads(c, workload.MustGet("raytrace"), 4)
		c.SetMode(firmware.Undervolt)
		uv := measureChip(o, c).UndervoltMV
		releaseChip(c)
		return uv
	})
	for i, sp := range spreads {
		res.Table.AddRow(fmt.Sprintf("spread=%.0fmV", sp), uvs[i])
		switch sp {
		case 0:
			res.UndervoltTight = uvs[i]
		case 10:
			res.UndervoltWide = uvs[i]
		}
	}
	return res
}

// AblationContentionResult sweeps the memory-contention exponent that
// calibrates Fig. 14's bandwidth-relief winners.
type AblationContentionResult struct {
	// Table columns: exponent, radix split speedup.
	Table *trace.Table
}

// AblationContention runs the exponent sweep.
func AblationContention(o Options) AblationContentionResult {
	res := AblationContentionResult{
		Table: trace.NewTable("Ablation: memory contention exponent", "radix split speedup x"),
	}
	exponents := []float64{1.0, 1.4, 1.8}
	if o.Quick {
		exponents = []float64{1.0, 1.4}
	}
	d := workload.MustGet("radix")
	speedups := parallel.Sweep(o.pool(), exponents, func(_ int, exp float64) float64 {
		runOne := func(split string, pl []server.Placement) float64 {
			cfg := o.serverConfig(o.Seed)
			cfg.ContentionExponent = exp
			cfg.Recorder = o.Recorder.Shard(fmt.Sprintf("server/abl-contention/%g/%s", exp, split))
			s := acquireServer(cfg)
			s.MustSubmit("j", d, pl, d.WorkGInst*o.WorkScale)
			s.SetMode(firmware.Static)
			elapsed, done := s.RunUntilDone(3600)
			if !done {
				panic("ablation: radix did not finish")
			}
			releaseServer(s)
			return stepQuantize(elapsed)
		}
		return runOne("consolidated", server.ConsolidatedPlacements(8)) / runOne("borrowed", server.BorrowedPlacements(8, 2))
	})
	for i, exp := range exponents {
		res.Table.AddRow(fmt.Sprintf("exp=%.1f", exp), speedups[i])
	}
	return res
}
