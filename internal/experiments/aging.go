package experiments

import (
	"fmt"

	"agsim/internal/firmware"
	"agsim/internal/parallel"
	"agsim/internal/trace"
	"agsim/internal/workload"
)

// AgingResult sweeps transistor wear and contrasts the two guardbanding
// philosophies the paper's Fig. 1 frames: the static guardband absorbs
// aging silently until it is exhausted and the part fails timing, while
// adaptive guardbanding senses the wear through its CPMs and gives margin
// back — first undervolt depth, then, past the guardband, clock frequency.
type AgingResult struct {
	// Violations: series "static" and "adaptive": margin-violation
	// core-steps during the measurement window vs wear mV.
	Violations *trace.Figure
	// Response: series "undervolt" (mV) and "frequency" (MHz) under the
	// adaptive policy vs wear mV.
	Response *trace.Figure

	// StaticFailureOnsetMV is the first swept wear at which the static
	// part violates timing; 0 when it never did.
	StaticFailureOnsetMV float64
	// AdaptiveViolations is the adaptive policy's total violations across
	// the sweep's steady-state windows (expected 0).
	AdaptiveViolations int
}

// AgingSweep runs the wear sweep with two active raytrace threads (a
// light-load part: the interesting regime, since heavy load exhausts the
// guardband with drop alone).
func AgingSweep(o Options) AgingResult {
	res := AgingResult{
		Violations: trace.NewFigure("Extension: timing violations vs wear"),
		Response:   trace.NewFigure("Extension: adaptive response vs wear"),
	}
	vStatic := res.Violations.NewSeries("static", "wear mV", "violations")
	vAdaptive := res.Violations.NewSeries("adaptive", "wear mV", "violations")
	rUV := res.Response.NewSeries("undervolt", "wear mV", "mV")
	rF := res.Response.NewSeries("frequency", "wear mV", "MHz")

	wears := []float64{0, 30, 60, 90, 120, 150}
	if o.Quick {
		wears = []float64{0, 60, 150}
	}
	const bench = "raytrace"
	const threads = 2
	type point struct {
		sv, av   int
		uv, freq float64
	}
	pts := parallel.Sweep(o.pool(), wears, func(_ int, wear float64) point {
		run := func(mode firmware.Mode) (violations int, uv, freq float64) {
			tag := fmt.Sprintf("aging/%v/%.0f", mode, wear)
			c := newChip(o, tag)
			placeThreads(c, workload.MustGet(bench), threads)
			c.AgeBy(wear)
			c.SetMode(mode)
			c.Settle(o.SettleSec)
			base := c.MarginViolations()
			var uvSum, fSum float64
			k := o.measureSpan(c, o.MeasureSec, func(dt float64) {
				uvSum += float64(c.UndervoltMV()) * dt
				fSum += float64(c.CoreFreq(0)) * dt
			})
			violations = c.MarginViolations() - base
			releaseChip(c)
			return violations, uvSum / k, fSum / k
		}
		var pt point
		pt.sv, _, _ = run(firmware.Static)
		pt.av, pt.uv, pt.freq = run(firmware.Undervolt)
		return pt
	})
	for i, wear := range wears {
		pt := pts[i]
		vStatic.Add(wear, float64(pt.sv))
		vAdaptive.Add(wear, float64(pt.av))
		rUV.Add(wear, pt.uv)
		rF.Add(wear, pt.freq)
		if pt.sv > 0 && res.StaticFailureOnsetMV == 0 {
			res.StaticFailureOnsetMV = wear
		}
		res.AdaptiveViolations += pt.av
	}
	return res
}
