// Package sample implements the sampled-simulation governor (the Pac-Sim
// lane): it wraps any layer that can advance in multi-rate segments and
// alternates detailed intervals — full micro/macro stepping with telemetry
// — with fast-forward intervals that extrapolate analytically from the
// most recent detailed window.
//
// Three cooperating mechanisms decide when extrapolation is safe:
//
//   - A live phase detector: each detailed window accumulates a
//     dt-weighted signature (chip power and MIPS, per-core frequency,
//     power, and throughput) and compares it against the previous
//     window's. A change point — any element moving more than the
//     phase tolerance — discards the accumulated statistics and
//     drops the governor back to detailed stepping at minimum leap ratio.
//   - An online confidence tracker: window means of power and throughput
//     feed streaming Welford accumulators (internal/stats); the governor
//     extrapolates only while the Student-t confidence interval of every
//     tracked statistic is within the target relative width. High
//     variance keeps the interval wide, so the governor simply never
//     leaves detailed mode — full simulation is the guaranteed fallback,
//     not a separate code path.
//   - Geometric leap pacing: each successful fast-forward doubles the
//     skip-to-window ratio up to maxLeapRatio; failed convergence halves
//     it. Long steady phases are skipped in multi-second spans while
//     unstable ones are resolved at full fidelity.
//
// Determinism: every decision is a pure function of simulated state, so
// sampled results are bit-identical across worker counts, exactly like
// the detailed lanes. Versus -exact the sampled lane is statistically —
// not bit- — comparable: firmware ticks inside fast-forwards draw the
// controller's sensed minimum from the exact per-window read distribution
// at the frozen point rather than replaying per-sensor noise, and frozen
// spans skip droop reaction, which is the fidelity trade the confidence
// interval prices (see chip.FastForward).
package sample

import (
	"math"

	"agsim/internal/stats"
)

// Target is a simulation layer the governor can drive: chip.Chip and
// server.Server implement it.
type Target interface {
	// Advance moves forward one multi-rate segment of at most maxSec and
	// returns the simulated seconds covered.
	Advance(maxSec float64) float64
	// SampleHint bounds a fast-forward: how far the target can extrapolate
	// without crossing a deterministic operating-point change.
	SampleHint(maxSec float64) float64
	// FastForward extrapolates h seconds at frozen conditions; h must have
	// been bounded by SampleHint.
	FastForward(h float64)
	// SampleSignature appends the target's phase signature to buf.
	SampleSignature(buf []float64) []float64
	// EmitSampleMode records a fidelity switch in the target's flight
	// recorder (a no-op without one).
	EmitSampleMode(toFast bool, ciRel, dist float64)
}

// Config tunes the governor. Zero values select the defaults.
type Config struct {
	// TargetRelCI is the relative confidence-interval half-width (CI /
	// |mean|) every tracked statistic must reach before the governor
	// extrapolates (default 0.01).
	TargetRelCI float64
	// Stats, when non-nil, aggregates span outcomes for error-bar
	// reporting across a whole experiment.
	Stats *RunStats
}

func (c Config) withDefaults() Config {
	if c.TargetRelCI <= 0 {
		c.TargetRelCI = 0.01
	}
	return c
}

const (
	// windowSec is the detailed-interval length: a bit over two firmware
	// ticks, enough for the sticky-window telemetry to cycle, and
	// deliberately NOT a multiple of the 32 ms tick. Windows then end at
	// rotating tick phases, so the sensor state each fast-forward freezes
	// samples the whole tick limit cycle instead of always the same point
	// of it, and extrapolation error averages out across windows rather
	// than accumulating as a systematic bias.
	windowSec = 0.072

	// confidence is the Student-t confidence level of the tracked CIs.
	confidence = 0.95

	// maxLeapRatio caps the fast-forward span as a multiple of windowSec.
	// The cap bounds how stale the frozen electrical point may grow before
	// a detailed window re-anchors it; the slow firmware dynamics keep
	// running inside fast-forwards (frozen ticks), so the cap prices
	// phase-change reaction latency, not control-loop fidelity.
	maxLeapRatio = 128

	// phaseTolerance is the per-element relative signature distance that
	// counts as a phase change.
	phaseTolerance = 0.10

	// minWindows is the number of consecutive same-phase detailed windows
	// required before the first extrapolation.
	minWindows = 3

	// initialLeapRatio is the skip-to-window ratio after a phase change;
	// it doubles per successful extrapolation up to maxLeapRatio.
	initialLeapRatio = 4
)

// spanEps mirrors the chip layer's Settle residue: spans within a
// nanosecond of covered are complete.
const spanEps = 1e-9

// Governor alternates detailed and fast-forward intervals over one target.
// It is reusable across spans of the same target (statistics carry over,
// which is what a driver measuring consecutive spans of one steady run
// wants) but not safe for concurrent use.
type Governor struct {
	cfg Config
	t   Target

	// power and mips track window means of the two headline-dominating
	// observables; their joint Student-t CI gates extrapolation.
	power, mips stats.Stream
	// tCrit caches TCritical for the current window count.
	tCrit   float64
	tCritN  int
	windows int
	ratio   float64

	sig, prevSig, scratch []float64
	havePrev              bool
	inFast                bool

	detailedSec, fastSec float64
	// recDetailed/recFast mark how much of the totals above earlier spans
	// already folded into cfg.Stats.
	recDetailed, recFast float64
	worstCI              float64
	fastForwards         int
}

// New returns a governor driving t.
func New(t Target, cfg Config) *Governor {
	return &Governor{cfg: cfg.withDefaults(), t: t, ratio: initialLeapRatio}
}

// Run covers spanSec, calling observe (when non-nil) with each segment's
// simulated duration after it lands — fast-forward spans included, so
// dt-weighted averages built by the caller extrapolate the frozen sensor
// state over the skipped time. Returns the covered span.
func (g *Governor) Run(spanSec float64, observe func(dt float64)) float64 {
	return g.run(spanSec, nil, observe)
}

// RunUntil advances until done() reports true or maxSec elapses, returning
// the covered span. Fast-forwards stop short of thread completions (the
// SampleHint contract), so completions always resolve at detailed rate.
func (g *Governor) RunUntil(done func() bool, maxSec float64, observe func(dt float64)) float64 {
	return g.run(maxSec, done, observe)
}

func (g *Governor) run(spanSec float64, done func() bool, observe func(dt float64)) float64 {
	covered := 0.0
	for covered < spanSec-spanEps {
		if done != nil && done() {
			break
		}
		w := windowSec
		if rem := spanSec - covered; w > rem {
			w = rem
		}
		covered += g.detailedWindow(w, done, observe)
		if covered >= spanSec-spanEps || (done != nil && done()) {
			break
		}
		if !g.converged() {
			if g.ratio = g.ratio / 2; g.ratio < 1 {
				g.ratio = 1
			}
			continue
		}
		ff := g.ratio * windowSec
		if rem := spanSec - covered; ff > rem {
			ff = rem
		}
		ff = g.t.SampleHint(ff)
		if ff < windowSec {
			// An operating-point change (a thread completion) is nearer
			// than a window: nothing worth skipping, resolve it at
			// detailed rate.
			continue
		}
		ci := g.relCI()
		if !g.inFast {
			g.t.EmitSampleMode(true, ci, 0)
			g.inFast = true
		}
		g.t.FastForward(ff)
		if observe != nil {
			observe(ff)
		}
		covered += ff
		g.fastSec += ff
		g.fastForwards++
		if ci > g.worstCI {
			g.worstCI = ci
		}
		if g.ratio = g.ratio * 2; g.ratio > maxLeapRatio {
			g.ratio = maxLeapRatio
		}
	}
	g.finish()
	return covered
}

// detailedWindow runs one fully detailed window of at most w seconds,
// accumulating the dt-weighted signature, then updates the phase detector
// and the confidence streams with the window means.
func (g *Governor) detailedWindow(w float64, done func() bool, observe func(dt float64)) float64 {
	if g.inFast {
		g.t.EmitSampleMode(false, g.relCI(), 0)
		g.inFast = false
	}
	g.sig = g.sig[:0]
	covered := 0.0
	for covered < w-spanEps {
		dt := g.t.Advance(w - covered)
		covered += dt
		if observe != nil {
			observe(dt)
		}
		g.accumulate(dt)
		if done != nil && done() {
			break
		}
	}
	g.detailedSec += covered

	inv := 1 / covered
	for i := range g.sig {
		g.sig[i] *= inv
	}
	dist := g.distance()
	if g.havePrev && dist > phaseTolerance {
		// Change point: the accumulated statistics describe the previous
		// phase. Start over from this window and leap cautiously.
		g.t.EmitSampleMode(false, g.relCI(), dist)
		g.power.Reset()
		g.mips.Reset()
		g.windows = 0
		g.ratio = initialLeapRatio
		if g.cfg.Stats != nil {
			g.cfg.Stats.phaseChange()
		}
	}
	if len(g.sig) >= 2 {
		g.power.Add(g.sig[0])
		g.mips.Add(g.sig[1])
	}
	g.windows++
	g.prevSig = append(g.prevSig[:0], g.sig...)
	g.havePrev = true
	return covered
}

// accumulate adds dt-weighted signature mass for the current window,
// growing the accumulator to the signature's length on the first segment.
func (g *Governor) accumulate(dt float64) {
	g.scratch = g.t.SampleSignature(g.scratch[:0])
	if len(g.sig) != len(g.scratch) {
		// First segment of the window (or a structural change mid-window,
		// which the distance check will flag): re-shape the accumulator.
		g.sig = g.sig[:0]
		for range g.scratch {
			g.sig = append(g.sig, 0)
		}
	}
	for i, v := range g.scratch {
		g.sig[i] += v * dt
	}
}

// distance returns the symmetric relative signature distance versus the
// previous window: max over elements of |a-b| / (1 + (|a|+|b|)/2). The +1
// suppresses noise on near-zero elements (idle cores) without affecting
// the physically scaled ones. Signatures of different lengths (a node
// powered on or off) are an unconditional change point.
func (g *Governor) distance() float64 {
	if !g.havePrev {
		return 0
	}
	if len(g.sig) != len(g.prevSig) {
		return math.Inf(1)
	}
	d := 0.0
	for i, a := range g.sig {
		b := g.prevSig[i]
		den := 1 + (math.Abs(a)+math.Abs(b))/2
		if e := math.Abs(a-b) / den; e > d {
			d = e
		}
	}
	return d
}

// converged reports whether enough same-phase evidence is in hand to
// extrapolate: minWindows windows and every tracked CI within target.
func (g *Governor) converged() bool {
	return g.windows >= minWindows && g.relCI() <= g.cfg.TargetRelCI
}

// relCI returns the worst relative confidence-interval half-width across
// the tracked statistics (skipping any whose mean is effectively zero —
// an idle chip's MIPS carries no evidence either way).
func (g *Governor) relCI() float64 {
	n := g.power.N()
	if n < 2 {
		return math.Inf(1)
	}
	if n != g.tCritN {
		g.tCrit = stats.TCriticalCached(confidence, n-1)
		g.tCritN = n
	}
	worst := 0.0
	for _, s := range [2]*stats.Stream{&g.power, &g.mips} {
		m := math.Abs(s.Mean())
		if m < 1e-9 {
			continue
		}
		if r := g.tCrit * s.StdErr() / m; r > worst {
			worst = r
		}
	}
	return worst
}

// finish closes the span: balances the mode-switch event stream and folds
// the span's outcome into the aggregate RunStats.
func (g *Governor) finish() {
	if g.inFast {
		g.t.EmitSampleMode(false, g.relCI(), 0)
		g.inFast = false
	}
	if g.cfg.Stats != nil {
		ci := g.worstCI
		if g.fastForwards == 0 {
			ci = 0 // never extrapolated: the span is full simulation
		}
		g.cfg.Stats.record(ci, g.detailedSec-g.recDetailed, g.fastSec-g.recFast)
	}
	g.recDetailed, g.recFast = g.detailedSec, g.fastSec
	g.worstCI, g.fastForwards = 0, 0
}

// DetailedSec reports the total simulated time this governor stepped at
// detailed fidelity, across all spans.
func (g *Governor) DetailedSec() float64 { return g.detailedSec }

// FastSec reports the total extrapolated (fast-forward) time.
func (g *Governor) FastSec() float64 { return g.fastSec }
