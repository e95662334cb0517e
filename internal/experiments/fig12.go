package experiments

import (
	"fmt"

	"agsim/internal/firmware"
	"agsim/internal/parallel"
	"agsim/internal/trace"
	"agsim/internal/workload"
)

// Fig12Result reproduces Fig. 12: raytrace on the two-socket server under
// the consolidation baseline versus loadline borrowing, sweeping active
// core count with eight of sixteen cores kept powered.
type Fig12Result struct {
	// Undervolt: series "baseline" and "borrowing", loaded-socket
	// undervolt millivolts vs active cores (Fig. 12a).
	Undervolt *trace.Figure
	// Power: series "static", "baseline", "borrowing", total chip watts
	// vs active cores (Fig. 12b).
	Power *trace.Figure

	// ExtraUndervoltAt1 is borrowing's undervolt advantage at one core
	// (paper: ~20 mV from reduced idle power).
	ExtraUndervoltAt1 float64
	// ExtraUndervoltAt8 is the advantage at eight cores (paper: ~20 mV
	// more from distributed dynamic power, ~40 mV total).
	ExtraUndervoltAt8 float64
	// ImprovementAt2, At4, At8: borrowing's power reduction over the
	// baseline (paper: 1.6%, 4.2%, 8.5%).
	ImprovementAt2, ImprovementAt4, ImprovementAt8 float64
}

// Fig12LoadlineBorrowing runs the Fig. 12 experiment.
func Fig12LoadlineBorrowing(o Options) Fig12Result {
	const bench = "raytrace"
	res := Fig12Result{
		Undervolt: trace.NewFigure("Fig. 12a: undervolt vs active cores"),
		Power:     trace.NewFigure("Fig. 12b: total chip power vs active cores"),
	}
	uvBase := res.Undervolt.NewSeries("baseline", "cores", "mV")
	uvBorrow := res.Undervolt.NewSeries("borrowing", "cores", "mV")
	pStatic := res.Power.NewSeries("static", "cores", "W")
	pBase := res.Power.NewSeries("baseline", "cores", "W")
	pBorrow := res.Power.NewSeries("borrowing", "cores", "W")

	d := workload.MustGet(bench)
	type point struct {
		staticP, baseP, borrP float64
		baseUV, borrUV        []float64
	}
	pts := parallel.Sweep(o.pool(), o.coreCounts(), func(_ int, n int) point {
		var pt point
		pt.staticP, _ = serverSteady(o, fmt.Sprintf("fig12/st/%d", n), d, n, false, firmware.Static)
		pt.baseP, pt.baseUV = serverSteady(o, fmt.Sprintf("fig12/base/%d", n), d, n, false, firmware.Undervolt)
		pt.borrP, pt.borrUV = serverSteady(o, fmt.Sprintf("fig12/borr/%d", n), d, n, true, firmware.Undervolt)
		return pt
	})
	for i, n := range o.coreCounts() {
		pt := pts[i]
		staticP, baseP, borrP := pt.staticP, pt.baseP, pt.borrP
		baseUV, borrUV := pt.baseUV, pt.borrUV

		pStatic.Add(float64(n), staticP)
		pBase.Add(float64(n), baseP)
		pBorrow.Add(float64(n), borrP)
		uvBase.Add(float64(n), baseUV[0])
		// Borrowing's loaded sockets are symmetric; report their mean.
		uvBorrow.Add(float64(n), (borrUV[0]+borrUV[1])/2)

		imp := improvementPct(baseP, borrP)
		switch n {
		case 1:
			res.ExtraUndervoltAt1 = (borrUV[0]+borrUV[1])/2 - baseUV[0]
		case 2:
			res.ImprovementAt2 = imp
		case 4:
			res.ImprovementAt4 = imp
		case 8:
			res.ExtraUndervoltAt8 = (borrUV[0]+borrUV[1])/2 - baseUV[0]
			res.ImprovementAt8 = imp
		}
	}
	return res
}
