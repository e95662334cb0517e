package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// childConfig is one workload process's job.
type childConfig struct {
	Workload string
	Seed     uint64
	// Seconds is the timed budget; MinPasses passes run even past it.
	Seconds   float64
	MinPasses int
	Trace     bool
	// T0 is when the parent started the process; set-up time runs from it.
	T0        time.Time
	GoldenDir string
	Scale     scale
}

// passSummary is what the parent needs of one timed pass.
type passSummary struct {
	WallS   float64              `json:"wall_s"`
	NormS   float64              `json:"norm_wall_s"`
	SimSec  float64              `json:"sim_s"`
	OpMS    []float64            `json:"op_ms"`
	Samples map[string][]float64 `json:"samples,omitempty"`
	Counts  map[string]float64   `json:"counts,omitempty"`
}

// childResult is what a workload process reports to its parent.
type childResult struct {
	// GoldenSeed is the seed of the golden the warm-up pass was checked
	// against: the run's seed when one is committed for it, else the
	// tuning seed.
	GoldenSeed uint64 `json:"golden_seed"`
	// SetupS is the set-up time at nominal host speed, rescaled as the
	// warm-up pass was; RawSetupS is its wall time. Both leave out the
	// host-clock probes.
	SetupS       float64       `json:"setup_s"`
	RawSetupS    float64       `json:"raw_setup_s"`
	PeakRSSMB    float64       `json:"peak_rss_mb"`
	Passes       []passSummary `json:"passes"`
	Attempted    int           `json:"attempted"`
	Failed       int           `json:"failed"`
	ErrVsRef     float64       `json:"err_vs_ref"`
	Checked      int           `json:"checked"`
	Notes        []string      `json:"notes,omitempty"`
	Deviations   []string      `json:"deviations,omitempty"`
	Digest       string        `json:"outputs_sha256"`
	BitIdentical *bool         `json:"bit_identical_to_golden,omitempty"`
	// The traced run's per-layer metrics and tables.
	Metrics   []metric      `json:"metrics,omitempty"`
	Layers    []layerRow    `json:"layers,omitempty"`
	LaneMS    float64       `json:"lane_ms,omitempty"`
	TracedS   float64       `json:"traced_wall_s,omitempty"`
	UntracedS float64       `json:"untraced_wall_s,omitempty"`
	Kernel    *kernelResult `json:"kernel,omitempty"`
	Events    []chromeEvent `json:"trace_events,omitempty"`
}

// runChild runs one workload: golden load, an untimed warm-up pass
// checked against a golden (set-up ends here), then either timed passes
// while the next one is expected to end within cfg.Seconds (at least
// cfg.MinPasses) or, traced, an untraced and a traced pass. Untraced,
// every pass runs with a host clock.
func runChild(cfg childConfig) (*childResult, error) {
	w, ok := lookupWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	strict := cfg.Scale.gridPoints == 0 && cfg.Scale.experiments == nil
	res := &childResult{}
	g, err := loadGolden(cfg.GoldenDir, w.name, cfg.Seed)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	warmGolden, warmSeed := g, cfg.Seed
	if g == nil {
		warmSeed = goldenSeeds[0]
		if warmGolden, err = loadGolden(cfg.GoldenDir, w.name, warmSeed); err != nil {
			return nil, fmt.Errorf("no golden for %s at seed %d or %d (agbench record -seed N writes one): %w", w.name, cfg.Seed, warmSeed, err)
		}
	}
	res.GoldenSeed = warmSeed

	var v verdict
	e := &env{scale: cfg.Scale}
	if !cfg.Trace {
		e.clock = newHostClock()
	}
	warm := w.run(e, warmSeed)
	warm.verify = nil
	v.check("warm-up", warm, warmGolden, nil, strict)
	res.RawSetupS = time.Since(cfg.T0).Seconds()
	res.SetupS = res.RawSetupS
	if c := e.clock; c != nil {
		res.RawSetupS -= c.probeS
		res.SetupS = res.RawSetupS * warm.normS / warm.wallS
	}
	// Read at the end of set-up, after the same work in every process;
	// how many timed passes follow depends on the host's speed.
	res.PeakRSSMB = peakRSSMB()

	// The traced run makes an untraced pass and then a traced one.
	var passes []*pass
	var tr *tracer
	start := time.Now()
	more := func() bool {
		if cfg.Trace {
			return len(passes) < 2
		}
		if len(passes) < cfg.MinPasses {
			return true
		}
		next := warm.wallS
		if n := len(passes); n > 0 {
			next = passes[n-1].wallS
		}
		return time.Since(start).Seconds()+next <= cfg.Seconds
	}
	for more() {
		pe := e
		if cfg.Trace && len(passes)%2 == 1 {
			tr = newTracer()
			pe = &env{scale: cfg.Scale, tr: tr, lane: tr.newLane()}
		}
		// Every pass starts from a collected heap, so the garbage of the
		// one before does not set when its collections fall.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p := w.run(pe, cfg.Seed)
		runtime.ReadMemStats(&m1)
		p.counts["heap_alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		if len(passes) == 0 {
			// The first pass's replay check runs now; dropping it
			// releases the fleets it holds before the next pass.
			v.verify("pass 1", p)
		}
		p.verify = nil
		passes = append(passes, p)
	}
	// last stands for the process's outputs at cfg.Seed: its last timed
	// pass, else the warm-up when that ran at cfg.Seed, else nothing.
	var last *pass
	if warmSeed == cfg.Seed {
		last = warm
	}
	if len(passes) > 0 {
		ref := outputMap(passes[0])
		if last != nil {
			ref = outputMap(last)
		}
		for i, p := range passes {
			v.check(fmt.Sprintf("pass %d", i+1), p, g, ref, strict)
		}
		last = passes[len(passes)-1]
	}
	if last != nil {
		res.Digest = digest(last.outputs())
	}
	if last != nil && g != nil && strict {
		b := res.Digest == g.LaneSHA256
		res.BitIdentical = &b
	}
	res.Attempted, res.Failed = v.attempted, v.failed
	res.ErrVsRef, res.Checked = v.errVsRef, v.checked
	res.Notes, res.Deviations = v.notes, v.deviations
	if cfg.Trace {
		traceMetrics(w, cfg, warm, passes, tr, res)
	}
	for _, p := range passes {
		res.Passes = append(res.Passes, p.summary())
	}
	return res, nil
}

// traceMetrics attributes the last traced pass's time to layers and
// reads the workload's per-layer metrics. passes alternate untraced and
// traced, starting untraced.
func traceMetrics(w benchWorkload, cfg childConfig, warm *pass, passes []*pass, tr *tracer, res *childResult) {
	var untracedWalls, tracedWalls []float64
	for i, p := range passes {
		if i%2 == 0 {
			untracedWalls = append(untracedWalls, p.wallS)
		} else {
			tracedWalls = append(tracedWalls, p.wallS)
		}
	}
	res.UntracedS, res.TracedS = pct(untracedWalls, 0.5), pct(tracedWalls, 0.5)
	res.Layers, res.LaneMS = tr.layerTable()
	untraced, traced := passes[len(passes)-2], passes[len(passes)-1]
	pid := 0
	for i, x := range workloads {
		if x.name == w.name {
			pid = 2 * i
		}
	}
	res.Events = tr.chrome(pid, w.name)

	for _, d := range perLayer {
		if d.on != w.name {
			continue
		}
		src := traced
		switch d.pass {
		case "setup":
			src = warm
		case "untraced":
			src = untraced
		}
		switch {
		case d.span != "":
			ds := tr.spanDurations(d.span)
			for i := range ds {
				ds[i] *= d.factor
			}
			res.Metrics = append(res.Metrics, summarize(d.name, d.unit, d.better, ds))
		case d.count != "":
			if x, ok := src.counts[d.count]; ok {
				res.Metrics = append(res.Metrics, single(d.name, d.unit, d.better, x))
			} else if xs := src.samples[d.count]; len(xs) > 0 {
				res.Metrics = append(res.Metrics, summarize(d.name, d.unit, d.better, xs))
			}
		}
	}
	if r := untraced.samples["read_ms"]; len(r) > 0 {
		res.Metrics = append(res.Metrics,
			percentile("read_ms_p50", [][]float64{r}, 0.50),
			percentile("read_ms_p90", [][]float64{r}, 0.90))
	}
	if w.name == "exact-grid" {
		ktr := newTracer()
		k := kernelPhase(ktr.newLane(), cfg.Scale, cfg.Seed)
		res.Kernel = &k
		res.Metrics = append(res.Metrics, k.metrics...)
		res.Events = append(res.Events, ktr.chrome(pid+1, "exact-grid kernel phase")...)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
