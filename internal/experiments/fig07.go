package experiments

import (
	"fmt"

	"agsim/internal/firmware"
	"agsim/internal/parallel"
	"agsim/internal/trace"
	"agsim/internal/workload"
)

// Fig07Result reproduces Fig. 7: per-core on-chip voltage drop as cores are
// activated in succession, for each labelled workload. Measurements are
// taken with adaptive guardbanding disabled (static mode at nominal), the
// methodology of paper §4.1.
type Fig07Result struct {
	// PerCore[i] is core i's figure: one series per workload, drop percent
	// of nominal vs active core count.
	PerCore []*trace.Figure

	// Core0DropAt1, Core0DropAt8: core 0's drop at one and eight active
	// cores (paper: rising from ~2% to ~8% across the sweep).
	Core0DropAt1, Core0DropAt8 float64
	// IdleCoreDropAt4 is core 7's drop while only cores 0-3 are active —
	// nonzero because drop is partly a chip-global effect.
	IdleCoreDropAt4 float64
	// ActivationJumpPct is how much core 7's drop rises between 7 and 8
	// active cores (paper: ~2% localized jump when the core activates).
	ActivationJumpPct float64
}

// Fig07VoltageDrop runs the Fig. 7 experiment. Like Fig09Decomposition it
// stays on the detailed lane under Options.Sampled: per-core drop includes
// the di/dt component a fast-forward freezes, and extrapolating one droop
// draw over a long span biases the time-weighted means.
func Fig07VoltageDrop(o Options) Fig07Result {
	o.Sampled = false
	cores := 8
	res := Fig07Result{PerCore: make([]*trace.Figure, cores)}
	for i := range res.PerCore {
		res.PerCore[i] = trace.NewFigure(fmt.Sprintf("Fig. 7: core %d voltage drop vs active cores", i))
	}

	workloads := workload.Fig5Workloads()
	if o.Quick {
		workloads = workloads[:2]
	}
	nom := float64(nomV())

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
	dropPcts := parallel.Sweep(o.pool(), points, func(_ int, pt gridPoint) []float64 {
		tag := fmt.Sprintf("fig07/%s/%d", pt.d.Name, pt.n)
		c := newChip(o, tag)
		placeThreads(c, pt.d, pt.n)
		c.SetMode(firmware.Static)
		c.Settle(o.SettleSec)
		drops := make([]float64, cores)
		span := o.measureSpan(c, o.MeasureSec, func(dt float64) {
			for i := 0; i < cores; i++ {
				drops[i] += c.TotalDropMV(i) * dt
			}
		})
		for i := range drops {
			drops[i] = drops[i] / span / nom * 100
		}
		releaseChip(c)
		return drops
	})

	k := 0
	for _, d := range workloads {
		series := make([]*trace.Series, cores)
		for i := range series {
			series[i] = res.PerCore[i].NewSeries(d.Name, "active cores", "% drop")
		}
		for _, n := range o.coreCounts() {
			for i := 0; i < cores; i++ {
				series[i].Add(float64(n), dropPcts[k][i])
			}
			k++
		}
	}

	// Headline statistics from the raytrace lines.
	if s := res.PerCore[0].Lookup("raytrace"); s != nil {
		res.Core0DropAt1, _ = s.YAt(1)
		res.Core0DropAt8, _ = s.YAt(8)
	}
	if s := res.PerCore[7].Lookup("raytrace"); s != nil {
		res.IdleCoreDropAt4, _ = s.YAt(4)
		// Activation jump: core 7's drop increase from the last point
		// before it activates to the point where it runs.
		if at8, ok := s.YAt(8); ok && len(s.Points) >= 2 {
			res.ActivationJumpPct = at8 - s.Points[len(s.Points)-2].Y
		}
	}
	return res
}
