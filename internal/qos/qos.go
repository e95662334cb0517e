// Package qos models the latency-sensitive WebSearch application of the
// paper's adaptive-mapping evaluation (§5.2.2, Fig. 17): an open-loop
// query stream served by one core, measured as the 90th-percentile latency
// of each measurement window against a 0.5-second target.
//
// Queries arrive as a Poisson process and are served one at a time; service
// time is the query's instruction footprint divided by the core's current
// throughput. Because the server runs near saturation, queueing amplifies
// small frequency changes: a ~3% core slowdown from a power-hungry
// co-runner (Fig. 15) moves the window p90 by >10%, which is exactly the
// mechanism that turns adaptive guardbanding's variable frequency into SLA
// violations.
package qos

import (
	"fmt"
	"sort"

	"agsim/internal/rng"
	"agsim/internal/stats"
	"agsim/internal/units"
)

// Config calibrates the query stream.
type Config struct {
	// ArrivalPerSec is the Poisson query arrival rate.
	ArrivalPerSec float64
	// QueryGInst is the mean instruction footprint of one query; service
	// time is QueryGInst / core throughput. Service times are
	// exponentially distributed around that mean (search queries have
	// heavy service-time variance).
	QueryGInst float64
	// TargetP90Sec is the SLA: the 90th-percentile latency each window
	// must stay under (0.5 s in the paper).
	TargetP90Sec float64
	// WindowSec is the measurement window length.
	WindowSec float64
	// RateJitter is the relative standard deviation of per-window load:
	// search traffic is not a flat Poisson process, and the windows that
	// violate the SLA are the ones where a load swell meets a slowed
	// core. Zero disables it.
	RateJitter float64
}

// DefaultConfig returns the Fig. 17 calibration: ~75% utilization at the
// unloaded frequency so queueing amplification matches the paper's
// violation-rate spread.
func DefaultConfig() Config {
	return Config{
		ArrivalPerSec: 68.5,
		QueryGInst:    0.0754,
		TargetP90Sec:  0.5,
		WindowSec:     12,
		RateJitter:    0.02,
	}
}

// Validate reports the first nonsensical parameter, or nil.
func (c Config) Validate() error {
	switch {
	case c.ArrivalPerSec <= 0:
		return fmt.Errorf("qos: non-positive arrival rate %v", c.ArrivalPerSec)
	case c.QueryGInst <= 0:
		return fmt.Errorf("qos: non-positive query footprint %v", c.QueryGInst)
	case c.TargetP90Sec <= 0:
		return fmt.Errorf("qos: non-positive target %v", c.TargetP90Sec)
	case c.WindowSec <= 0:
		return fmt.Errorf("qos: non-positive window %v", c.WindowSec)
	case c.RateJitter < 0 || c.RateJitter > 0.5:
		return fmt.Errorf("qos: rate jitter %v out of [0, 0.5]", c.RateJitter)
	}
	return nil
}

// WindowResult summarizes one measurement window.
type WindowResult struct {
	P90Sec   float64
	Violated bool
	Queries  int
}

// Tracker simulates the query stream window by window.
type Tracker struct {
	cfg Config
	r   *rng.Source

	// serverFreeAt is the absolute time the server finishes its current
	// backlog; carrying it across windows models a persistent queue.
	now, serverFreeAt float64

	windows    int
	violations int
	history    []WindowResult

	// sojourns is the current window's query sojourn times, sorted in
	// place for its percentile; the buffer is reused window to window.
	sojourns []float64
}

// NewTracker creates a tracker; it panics on an invalid configuration or a
// nil randomness source (query streams are inherently stochastic).
func NewTracker(cfg Config, r *rng.Source) *Tracker {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if r == nil {
		panic("qos: nil randomness source")
	}
	return &Tracker{cfg: cfg, r: r}
}

// RunWindow simulates one measurement window with the serving core at the
// given throughput and returns the window's 90th-percentile latency
// verdict. A throughput so low that the queue diverges yields a saturated
// (clearly violating) window rather than an error: overload is a result,
// not a failure.
func (t *Tracker) RunWindow(coreMIPS units.MIPS) WindowResult {
	if coreMIPS <= 0 {
		panic(fmt.Sprintf("qos: non-positive throughput %v", coreMIPS))
	}
	gips := float64(coreMIPS) / 1000 // GInst per second
	meanService := t.cfg.QueryGInst / gips

	rate := t.cfg.ArrivalPerSec
	if t.cfg.RateJitter > 0 {
		rate *= 1 + t.r.Normal(0, t.cfg.RateJitter)
		if min := t.cfg.ArrivalPerSec * 0.2; rate < min {
			rate = min
		}
	}

	end := t.now + t.cfg.WindowSec
	sojourns := t.sojourns[:0]
	for {
		t.now += t.r.Exp(1 / rate)
		if t.now >= end {
			t.now = end
			break
		}
		start := t.now
		if t.serverFreeAt > start {
			start = t.serverFreeAt
		}
		// Cap backlog growth at 30 s of queue: the stream is effectively
		// saturated beyond that and unbounded state helps nobody.
		if start-t.now > 30 {
			sojourns = append(sojourns, 30)
			continue
		}
		service := t.r.Exp(meanService)
		t.serverFreeAt = start + service
		sojourns = append(sojourns, t.serverFreeAt-t.now)
	}

	t.sojourns = sojourns
	res := WindowResult{Queries: len(sojourns)}
	if len(sojourns) == 0 {
		// No arrivals in the window: trivially compliant.
		res.P90Sec = 0
	} else {
		sort.Float64s(sojourns)
		res.P90Sec = stats.PercentileSorted(sojourns, 90)
	}
	res.Violated = res.P90Sec > t.cfg.TargetP90Sec
	t.windows++
	if res.Violated {
		t.violations++
	}
	t.history = append(t.history, res)
	return res
}

// ViolationRate returns the fraction of windows that missed the target.
func (t *Tracker) ViolationRate() float64 {
	if t.windows == 0 {
		return 0
	}
	return float64(t.violations) / float64(t.windows)
}

// Windows returns the number of completed windows.
func (t *Tracker) Windows() int { return t.windows }

// P90History returns the p90 of every completed window, for CDF plots.
func (t *Tracker) P90History() []float64 {
	out := make([]float64, len(t.history))
	for i, w := range t.history {
		out[i] = w.P90Sec
	}
	return out
}

// ResetStats clears window statistics but keeps queue state.
func (t *Tracker) ResetStats() {
	t.windows, t.violations = 0, 0
	t.history = nil
}

// Utilization returns the offered load ρ at the given throughput; above 1
// the queue diverges.
func (c Config) Utilization(coreMIPS units.MIPS) float64 {
	gips := float64(coreMIPS) / 1000
	return c.ArrivalPerSec * c.QueryGInst / gips
}
