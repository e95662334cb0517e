package experiments

import (
	"fmt"

	"agsim/internal/chip"
	"agsim/internal/core"
	"agsim/internal/firmware"
	"agsim/internal/parallel"
	"agsim/internal/qos"
	"agsim/internal/rng"
	"agsim/internal/stats"
	"agsim/internal/trace"
	"agsim/internal/units"
	"agsim/internal/workload"
)

// Fig17Result reproduces Fig. 17 and §5.2.2: WebSearch's windowed
// 90th-percentile latency under three co-runners, and the adaptive
// mapper's co-runner swap restoring QoS.
type Fig17Result struct {
	// CDF: one series per co-runner ("light", "medium", "heavy"),
	// cumulative fraction vs window p90 seconds.
	CDF *trace.Figure

	// ViolationLight/Medium/Heavy: fraction of windows missing the 0.5 s
	// target (paper: ~7%, ~15%, >25%).
	ViolationLight, ViolationMedium, ViolationHeavy float64

	// Mapping run: starting blind with the heavy co-runner and letting
	// the Fig. 18 loop act.
	// SwapHappened reports the mapper replaced the co-runner.
	SwapHappened bool
	// ChosenCoRunner is the replacement's name.
	ChosenCoRunner string
	// ViolationBeforeSwap and ViolationAfterSwap bracket the scheduler's
	// effect (paper: >25% down to <7%).
	ViolationBeforeSwap, ViolationAfterSwap float64
	// TailImprovementPct is the p90 improvement after the swap (paper:
	// 5.2% on query tail latency).
	TailImprovementPct float64
}

// coRunner describes one co-runner configuration: coremark threads on
// cores 1-7 with a constrained issue rate, the paper's §5.2.2 methodology.
type coRunner struct {
	name     string
	throttle float64
}

// The throttles are calibrated so the three co-runners contribute roughly
// the paper's 13,000 / 28,000 / 70,000 chip MIPS.
var coRunners = []coRunner{
	{"light", 0.18},
	{"medium", 0.39},
	{"heavy", 0.96},
}

// colocatedChip builds the Fig. 17 platform: WebSearch pinned to core 0,
// the co-runner filling cores 1-7, frequency-boosting mode.
func colocatedChip(o Options, tag string, r coRunner) *chip.Chip {
	c := newChip(o, "fig17/"+tag)
	ws := workload.MustGet("websearch")
	cm := workload.MustGet("coremark")
	c.Place(0, workload.NewThread(ws, 1e9, nil))
	for i := 1; i < 8; i++ {
		c.Place(i, workload.NewThread(cm, 1e9, nil))
		c.SetIssueThrottle(i, r.throttle)
	}
	c.SetMode(firmware.Overclock)
	o.settleChip(c, "fig17/"+tag+fmt.Sprintf("/co=%.2f", r.throttle))
	return c
}

// swapCoRunner replaces the co-runner threads in place.
func swapCoRunner(c *chip.Chip, r coRunner) {
	cm := workload.MustGet("coremark")
	for i := 1; i < 8; i++ {
		c.ClearCore(i)
		c.Place(i, workload.NewThread(cm, 1e9, nil))
		c.SetIssueThrottle(i, r.throttle)
	}
}

// windowObservation advances the chip by one QoS window and returns the
// averaged conditions WebSearch saw.
func windowObservation(c *chip.Chip, windowSec float64) (ownMIPS units.MIPS, freq units.Megahertz, chipMIPS units.MIPS) {
	var mips, f, total float64
	k := measureSpan(c, windowSec, func(dt float64) {
		mips += float64(c.CoreMIPS(0)) * dt
		f += float64(c.CoreFreq(0)) * dt
		total += float64(c.TotalMIPS()) * dt
	})
	return units.MIPS(mips / k), units.Megahertz(f / k), units.MIPS(total / k)
}

// Fig17AdaptiveMapping runs the Fig. 17 experiment.
func Fig17AdaptiveMapping(o Options) Fig17Result {
	res := Fig17Result{CDF: trace.NewFigure("Fig. 17: WebSearch window p90 CDF per co-runner")}
	cfg := qos.DefaultConfig()

	windows := 150
	if o.Quick {
		windows = 25
	}

	// Characterize each co-runner with live windows feeding the query
	// stream. Each characterization owns its chip and QoS tracker (seeded
	// from its own named stream), so the three fan out on the pool.
	type charac struct {
		violationRate float64
		hist          []float64
		coMIPS        float64
	}
	characs := parallel.Sweep(o.pool(), coRunners, func(_ int, cr coRunner) charac {
		c := colocatedChip(o, cr.name, cr)
		tr := qos.NewTracker(cfg, rng.New(o.Seed, "qos/"+cr.name))
		var coMIPS float64
		for w := 0; w < windows; w++ {
			own, _, chipTotal := windowObservation(c, cfg.WindowSec)
			tr.RunWindow(own)
			coMIPS += float64(chipTotal) - float64(own)
		}
		releaseChip(c)
		return charac{violationRate: tr.ViolationRate(), hist: tr.P90History(), coMIPS: coMIPS}
	})

	candidates := make([]core.Candidate, 0, len(coRunners))
	violations := map[string]float64{}
	p90Means := map[string]float64{}
	cm := workload.MustGet("coremark")
	for i, cr := range coRunners {
		ch := characs[i]
		violations[cr.name] = ch.violationRate
		p90Means[cr.name] = stats.Mean(ch.hist)
		cdf := stats.NewCDF(ch.hist)
		s := res.CDF.NewSeries(cr.name, "p90 (s)", "cumulative fraction")
		for _, q := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95} {
			s.Add(cdf.Quantile(q), q)
		}
		mips := units.MIPS(ch.coMIPS / float64(windows))
		candidates = append(candidates, core.Candidate{
			Name:         cr.name,
			MIPS:         mips,
			BandwidthGBs: cm.BandwidthGBs(mips),
		})
	}
	res.ViolationLight = violations["light"]
	res.ViolationMedium = violations["medium"]
	res.ViolationHeavy = violations["heavy"]

	// Train the frequency predictor across throttle levels (the profiling
	// the middleware would have accumulated). Measurements fan out; the
	// predictor observes in input order.
	predictor := &core.FreqPredictor{}
	trainSts := parallel.Sweep(o.pool(), []float64{0.1, 0.3, 0.5, 0.7, 0.96}, func(_ int, th float64) steady {
		tag := fmt.Sprintf("train/%.2f", th)
		c := colocatedChip(o, tag, coRunner{"train", th})
		st := measureChip(o, c, tag)
		releaseChip(c)
		return st
	})
	for _, st := range trainSts {
		predictor.Observe(units.MIPS(st.TotalMIPS), units.Megahertz(st.Freq0MHz))
	}
	if err := predictor.Train(); err != nil {
		panic(err)
	}

	// The Fig. 18 loop: WebSearch starts blindly colocated with heavy.
	mapper, err := core.NewAdaptiveMapper(core.AppSpec{
		Name: "websearch", Critical: true, QoSTarget: cfg.TargetP90Sec,
	}, predictor)
	if err != nil {
		panic(err)
	}
	if o.Quick {
		// Short runs need a shorter evidence window to act within the
		// reduced quantum budget.
		mapper.WindowQuanta = 8
	}
	c := colocatedChip(o, "mapping", coRunners[2])
	tr := qos.NewTracker(cfg, rng.New(o.Seed, "qos/mapping"))
	currentName := "heavy"
	var beforeHist, afterHist []float64
	for w := 0; w < 2*windows; w++ {
		own, freq, _ := windowObservation(c, cfg.WindowSec)
		wr := tr.RunWindow(own)
		if res.SwapHappened {
			afterHist = append(afterHist, wr.P90Sec)
		} else {
			beforeHist = append(beforeHist, wr.P90Sec)
		}
		decision := mapper.Tick(core.Observation{
			QoSMetric: wr.P90Sec,
			Violated:  wr.Violated,
			Freq:      freq,
			OwnMIPS:   own,
		}, candidates)
		if decision.Swap && decision.Candidate.Name != currentName {
			res.ViolationBeforeSwap = violationFraction(beforeHist, cfg.TargetP90Sec)
			for _, cr := range coRunners {
				if cr.name == decision.Candidate.Name {
					swapCoRunner(c, cr)
					currentName = cr.name
					res.SwapHappened = true
					res.ChosenCoRunner = cr.name
					break
				}
			}
			tr.ResetStats()
		}
	}
	if res.SwapHappened && len(afterHist) > 0 {
		res.ViolationAfterSwap = violationFraction(afterHist, cfg.TargetP90Sec)
		res.TailImprovementPct = improvementPct(stats.Mean(beforeHist), stats.Mean(afterHist))
	}
	releaseChip(c)
	return res
}

// violationFraction returns the fraction of window p90s above the target.
func violationFraction(p90s []float64, target float64) float64 {
	if len(p90s) == 0 {
		return 0
	}
	n := 0
	for _, p := range p90s {
		if p > target {
			n++
		}
	}
	return float64(n) / float64(len(p90s))
}
