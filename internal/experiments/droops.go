package experiments

import (
	"fmt"

	"agsim/internal/didt"
	"agsim/internal/firmware"
	"agsim/internal/parallel"
	"agsim/internal/trace"
	"agsim/internal/workload"
)

// DroopCensusResult reproduces the analysis the paper alludes to but does
// not plot (§4.3: "our droop frequency analysis (not shown here) indicates
// that such large worst-case droops occur infrequently"): the rate and
// depth of worst-case di/dt events versus active core count, and how often
// a 32 ms firmware window contains one.
type DroopCensusResult struct {
	// Rate: droop events per second vs active cores.
	Rate *trace.Figure
	// Depth: characteristic worst-event depth (mV) vs active cores.
	Depth *trace.Figure

	// RateAt8 is the eight-core event rate per second (expected: a few
	// per second — rare at the microarchitectural scale).
	RateAt8 float64
	// DepthGrowth is depth at 8 cores over depth at 1 core (paper:
	// worst-case noise "increases slightly", well under 2x).
	DepthGrowth float64
	// BusyWindowShareAt8 is the fraction of 32 ms firmware windows
	// containing at least one event at eight cores.
	BusyWindowShareAt8 float64
}

// droopProfile derives the didt profile n active bodytrack cores present.
func droopProfiles(d workload.Descriptor, n int) []didt.Profile {
	ps := make([]didt.Profile, n)
	for i := range ps {
		ps[i] = didt.Profile{
			TypicalMV:  d.DidtTypicalMV,
			WorstMV:    d.DidtWorstMV,
			RatePerSec: d.DroopRatePerSec,
		}
	}
	return ps
}

// DroopCensus runs the census with bodytrack, the noisiest profiled
// workload.
func DroopCensus(o Options) DroopCensusResult {
	res := DroopCensusResult{
		Rate:  trace.NewFigure("Droop census: events per second vs active cores"),
		Depth: trace.NewFigure("Droop census: characteristic depth vs active cores"),
	}
	rate := res.Rate.NewSeries("bodytrack", "cores", "events/s")
	depth := res.Depth.NewSeries("bodytrack", "cores", "mV")

	seconds := 20.0
	if o.Quick {
		seconds = 6
	}
	d := workload.MustGet("bodytrack")
	didtParams := didt.DefaultParams()
	type point struct {
		perSec, depthNow     float64
		busyWindows, windows int
	}
	pts := parallel.Sweep(o.pool(), o.coreCounts(), func(_ int, n int) point {
		tag := fmt.Sprintf("droops/%d", n)
		c := newChip(o, tag)
		placeThreads(c, d, n)
		c.SetMode(firmware.Undervolt)
		c.Settle(o.SettleSec)
		c.ResetDroopStats()

		// Multi-rate census: events always fire inside micro-steps and the
		// window boundaries land at the same absolute times in both lanes,
		// so a window is "busy" exactly when the droop counters moved while
		// it was open — a lane-invariant count, unlike the sticky telemetry,
		// whose one-window carryover (Breakdown reads the previous window's
		// worst too) would double-count busy windows.
		busyWindows, windows := 0, 0
		sinceWindow := 0.0
		prevEvents := 0
		for remaining := seconds; remaining > settleEps; {
			dt := c.Advance(remaining)
			remaining -= dt
			sinceWindow += dt
			if sinceWindow+1e-9 >= firmware.TickSeconds {
				sinceWindow -= firmware.TickSeconds
				windows++
				absorbed, violations := c.DroopStats()
				if absorbed+violations > prevEvents {
					busyWindows++
				}
				prevEvents = absorbed + violations
			}
		}
		absorbed, violations := c.DroopStats()
		cores := c.Cores()
		releaseChip(c)
		// The DPLL counters tally per clocked core; divide for the
		// chip-level event count.
		return point{
			perSec:      float64(absorbed+violations) / float64(cores) / seconds,
			depthNow:    didtParams.ExpectedWorstMV(droopProfiles(d, n)),
			busyWindows: busyWindows,
			windows:     windows,
		}
	})

	var depthAt1 float64
	for i, n := range o.coreCounts() {
		pt := pts[i]
		rate.Add(float64(n), pt.perSec)
		depth.Add(float64(n), pt.depthNow)

		switch n {
		case 1:
			depthAt1 = pt.depthNow
		case 8:
			res.RateAt8 = pt.perSec
			if pt.windows > 0 {
				res.BusyWindowShareAt8 = float64(pt.busyWindows) / float64(pt.windows)
			}
			if depthAt1 > 0 {
				res.DepthGrowth = pt.depthNow / depthAt1
			}
		}
	}
	return res
}
