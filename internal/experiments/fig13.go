package experiments

import (
	"fmt"

	"agsim/internal/firmware"
	"agsim/internal/parallel"
	"agsim/internal/trace"
	"agsim/internal/workload"
)

// Fig13Result reproduces Fig. 13: adaptive guardbanding's power improvement
// over a static guardband, under consolidation versus loadline borrowing,
// for every PARSEC and SPLASH-2 workload across core counts.
type Fig13Result struct {
	// Baseline and Borrowing: one series per workload, improvement
	// percent vs active cores.
	Baseline  *trace.Figure
	Borrowing *trace.Figure

	// AvgBaselineAt8, AvgBorrowingAt8: mean improvements at eight cores
	// (paper: 5.5% and 13.8%).
	AvgBaselineAt8, AvgBorrowingAt8 float64
}

// Fig13BorrowingSweep runs the Fig. 13 experiment. Improvements are
// measured against a static guardband under the *same* schedule, isolating
// the guardbanding benefit that each schedule leaves available — the
// paper's framing.
func Fig13BorrowingSweep(o Options) Fig13Result {
	res := Fig13Result{
		Baseline:  trace.NewFigure("Fig. 13: improvement under consolidation"),
		Borrowing: trace.NewFigure("Fig. 13: improvement under loadline borrowing"),
	}

	workloads := workload.Multithreaded()
	if o.Quick {
		workloads = workload.Fig5Workloads()
	}

	type gridPoint struct {
		d workload.Descriptor
		n int
	}
	var points []gridPoint
	for _, d := range workloads {
		for _, n := range o.coreCounts() {
			points = append(points, gridPoint{d, n})
		}
	}
	type imp struct{ impC, impB float64 }
	imps := parallel.Sweep(o.pool(), points, func(_ int, pt gridPoint) imp {
		staticC, _ := serverSteady(o, fmt.Sprintf("fig13/stc/%s/%d", pt.d.Name, pt.n), pt.d, pt.n, false, firmware.Static)
		agC, _ := serverSteady(o, fmt.Sprintf("fig13/agc/%s/%d", pt.d.Name, pt.n), pt.d, pt.n, false, firmware.Undervolt)
		staticB, _ := serverSteady(o, fmt.Sprintf("fig13/stb/%s/%d", pt.d.Name, pt.n), pt.d, pt.n, true, firmware.Static)
		agB, _ := serverSteady(o, fmt.Sprintf("fig13/agb/%s/%d", pt.d.Name, pt.n), pt.d, pt.n, true, firmware.Undervolt)

		return imp{impC: improvementPct(staticC, agC), impB: improvementPct(staticB, agB)}
	})

	var base8, borr8 []float64
	k := 0
	for _, d := range workloads {
		bs := res.Baseline.NewSeries(d.Name, "cores", "%")
		rs := res.Borrowing.NewSeries(d.Name, "cores", "%")
		for _, n := range o.coreCounts() {
			impC, impB := imps[k].impC, imps[k].impB
			k++
			bs.Add(float64(n), impC)
			rs.Add(float64(n), impB)
			if n == 8 {
				base8 = append(base8, impC)
				borr8 = append(borr8, impB)
			}
		}
	}
	res.AvgBaselineAt8 = meanOf(base8)
	res.AvgBorrowingAt8 = meanOf(borr8)
	return res
}
