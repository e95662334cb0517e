package experiments

import (
	"fmt"

	"agsim/internal/firmware"
	"agsim/internal/parallel"
	"agsim/internal/trace"
	"agsim/internal/workload"
)

// Fig15Result reproduces Fig. 15: the frequency a critical coremark thread
// gets as other workloads are colocated on the remaining cores, in
// frequency-boosting mode.
type Fig15Result struct {
	// Frequency: series "lu_cb" and "mcf", core-0 (coremark) frequency vs
	// the number of coremark threads in the mix (the rest of the eight
	// cores run the other workload). x=8 is the coremark-only chip.
	Frequency *trace.Figure

	// CoremarkOnly is the all-coremark frequency (paper: ~4517 MHz).
	CoremarkOnly float64
	// WorstWithLuCb is the frequency with one coremark and seven lu_cb
	// threads (paper: drops to ~4433 MHz).
	WorstWithLuCb float64
	// BestWithMcf is the frequency with one coremark and seven mcf
	// threads (paper: mcf colocation raises frequency).
	BestWithMcf float64
	// SwingMHz is the spread between the lu_cb and mcf extremes (paper:
	// >100 MHz).
	SwingMHz float64
}

// Fig15Colocation runs the Fig. 15 experiment.
func Fig15Colocation(o Options) Fig15Result {
	res := Fig15Result{
		Frequency: trace.NewFigure("Fig. 15: coremark frequency vs colocation mix"),
	}
	cm := workload.MustGet("coremark")

	counts := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if o.Quick {
		counts = []int{1, 4, 8}
	}
	type gridPoint struct {
		otherName string
		k         int
	}
	var points []gridPoint
	for _, otherName := range []string{"lu_cb", "mcf"} {
		for _, k := range counts {
			points = append(points, gridPoint{otherName, k})
		}
	}
	freqs := parallel.Sweep(o.pool(), points, func(_ int, pt gridPoint) float64 {
		other := workload.MustGet(pt.otherName)
		tag := fmt.Sprintf("fig15/%s/%d", pt.otherName, pt.k)
		c := newChip(o, tag)
		for i := 0; i < pt.k; i++ {
			c.Place(i, workload.NewThread(cm, 1e9, nil))
		}
		for i := pt.k; i < 8; i++ {
			c.Place(i, workload.NewThread(other, 1e9, nil))
		}
		c.SetMode(firmware.Overclock)
		f := measureChip(o, c).Freq0MHz
		releaseChip(c)
		return f
	})

	idx := 0
	for _, otherName := range []string{"lu_cb", "mcf"} {
		s := res.Frequency.NewSeries(otherName, "#coremark", "MHz")
		for _, k := range counts {
			f := freqs[idx]
			idx++
			s.Add(float64(k), f)

			switch {
			case k == 8 && otherName == "lu_cb":
				res.CoremarkOnly = f
			case k == 1 && otherName == "lu_cb":
				res.WorstWithLuCb = f
			case k == 1 && otherName == "mcf":
				res.BestWithMcf = f
			}
		}
	}
	res.SwingMHz = res.BestWithMcf - res.WorstWithLuCb
	return res
}
