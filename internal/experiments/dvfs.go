package experiments

import (
	"fmt"

	"agsim/internal/chip"
	"agsim/internal/firmware"
	"agsim/internal/parallel"
	"agsim/internal/trace"
	"agsim/internal/workload"
)

// DVFSResult compares conventional DVFS against adaptive guardbanding on
// the energy/performance plane: DVFS trades frequency for voltage but
// carries the full static guardband at every point, while undervolting
// keeps nominal performance and reclaims the guardband itself. This is the
// framing of the paper's Fig. 1 made quantitative.
type DVFSResult struct {
	// Plane: series "dvfs" (one point per P-state) and "adaptive" (one
	// point), energy J vs execution seconds for the same fixed work.
	Plane *trace.Figure

	// AdaptiveSavingVsNominalPct is undervolting's energy saving against
	// the top P-state at equal performance.
	AdaptiveSavingVsNominalPct float64
	// DVFSSecondsForAdaptiveEnergy is how much slower DVFS must run to
	// match adaptive guardbanding's energy (interpolated; 0 when no
	// P-state reaches it).
	DVFSSecondsForAdaptiveEnergy float64
}

// DVFSComparison runs the comparison with four active raytrace threads.
func DVFSComparison(o Options) DVFSResult {
	const bench = "raytrace"
	const threads = 4
	const points = 6
	res := DVFSResult{Plane: trace.NewFigure("Extension: DVFS vs adaptive guardbanding (energy vs time)")}
	dvfs := res.Plane.NewSeries("dvfs", "s", "J")
	adaptive := res.Plane.NewSeries("adaptive", "s", "J")

	d := workload.MustGet(bench)
	// The chip tag must be stable across runs (it seeds the chip's RNG
	// streams); the old fmt.Sprintf("dvfs/%p", ...) tag hashed a pointer
	// address and made every run's noise realization different.
	run := func(tag string, configure func(c *chip.Chip)) runResult {
		c := newChip(o, "dvfs/"+tag)
		per := workload.SplitWork(d, threads) * o.WorkScale
		threadsList := make([]*workload.Thread, threads)
		for i := range threadsList {
			threadsList[i] = workload.NewThread(d, 1e9, nil)
			c.Place(i, threadsList[i])
		}
		configure(c)
		c.Settle(o.SettleSec)
		for _, th := range threadsList {
			th.Reset(per)
		}
		c.ResetEnergy()
		start := c.Time()
		for !c.AllDone() {
			c.Advance(1)
			if c.Time()-start > 3600 {
				panic("experiments: DVFS comparison did not finish")
			}
		}
		sec := stepQuantize(c.Time() - start)
		rr := runResult{Seconds: sec, EnergyJ: c.EnergyJ(), AvgPowerW: c.EnergyJ() / sec}
		releaseChip(c)
		return rr
	}

	var nominal runResult
	sweep := points
	if o.Quick {
		sweep = 3
	}
	// P-state index per sweep point, with -1 marking the adaptive run so
	// the whole comparison fans out as one batch.
	var idxs []int
	for i := sweep - 1; i >= 0; i-- {
		idxs = append(idxs, i*(points-1)/maxInt(sweep-1, 1))
	}
	idxs = append(idxs, -1)
	runs := parallel.Sweep(o.pool(), idxs, func(_ int, idx int) runResult {
		if idx < 0 {
			return run("adaptive", func(c *chip.Chip) { c.SetMode(firmware.Undervolt) })
		}
		return run(fmt.Sprintf("pstate/%d", idx), func(c *chip.Chip) { c.SetPState(idx, points) })
	})

	dvfsRuns := runs[:len(runs)-1]
	for i, idx := range idxs[:len(idxs)-1] {
		r := dvfsRuns[i]
		dvfs.Add(r.Seconds, r.EnergyJ)
		if idx == points-1 {
			nominal = r
		}
	}
	ag := runs[len(runs)-1]
	adaptive.Add(ag.Seconds, ag.EnergyJ)

	if nominal.EnergyJ > 0 {
		res.AdaptiveSavingVsNominalPct = improvementPct(nominal.EnergyJ, ag.EnergyJ)
	}
	// Find where the DVFS curve crosses adaptive guardbanding's energy.
	for _, r := range dvfsRuns {
		if r.EnergyJ <= ag.EnergyJ {
			res.DVFSSecondsForAdaptiveEnergy = r.Seconds
			break
		}
	}
	return res
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
