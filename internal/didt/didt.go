// Package didt models inductive (di/dt) voltage noise on the shared Vdd
// plane: the typical-case ripple of normal execution and the rare
// worst-case droops caused by aligned current surges across cores.
//
// The model encodes the two multicore effects the paper reports in §4.3:
//
//   - Typical-case noise *shrinks* as cores are added, because
//     microarchitectural activity staggers across cores and averages out
//     ("noise smoothing"): amplitude scales as 1/sqrt(active cores).
//   - Worst-case noise *grows slightly* with core count, because occasional
//     random alignment of activity across cores produces larger combined
//     surges, though such events are infrequent.
package didt

import (
	"fmt"
	"math"

	"agsim/internal/rng"
)

// Profile is the noise character contributed by one active core, derived
// from its workload descriptor.
type Profile struct {
	// TypicalMV is the single-core typical ripple amplitude.
	TypicalMV float64
	// WorstMV is the single-core worst-case droop magnitude.
	WorstMV float64
	// RatePerSec is the expected worst-case alignment event rate.
	RatePerSec float64
}

// Params calibrates the multicore composition of per-core profiles.
type Params struct {
	// AlignmentGrowth controls how the worst-case droop grows with active
	// core count n: worst = max_core WorstMV * (1 + AlignmentGrowth*(sqrt(n)-1)).
	AlignmentGrowth float64
	// SmoothingExponent controls typical-case smoothing: typical =
	// mean TypicalMV / n^SmoothingExponent.
	SmoothingExponent float64
}

// DefaultParams returns the calibration used by the reproduction.
func DefaultParams() Params {
	return Params{AlignmentGrowth: 0.35, SmoothingExponent: 0.5}
}

// Sample is the chip-wide noise state over one simulation step. Voltage
// noise is global on the shared plane (paper §4.2), so one sample applies
// to all cores.
type Sample struct {
	// TypicalMV is the ripple amplitude around the DC level; the DPLL
	// rides at the bottom of this ripple.
	TypicalMV float64
	// WorstEventMV is the depth of the deepest worst-case droop that
	// occurred during the step (0 when none did). Sticky-mode CPMs latch
	// it; sample-mode reads almost never catch it.
	WorstEventMV float64
	// Events is the number of worst-case droop events in the step.
	Events int
}

// WobbleWindowSec is the cadence of the typical-ripple wobble redraw. It
// matches the firmware telemetry window: the wobble models the slow
// envelope modulation telemetry sees across 32 ms reads, and pinning the
// redraws to absolute simulated-time boundaries makes the draw sequence a
// function of elapsed time only — a macro-step across a window consumes
// exactly the draws the equivalent micro-steps would.
const WobbleWindowSec = 0.032

// Model generates noise samples for one chip.
type Model struct {
	p Params
	r *rng.Source

	// worstSeen tracks the deepest droop since the last StickyReset, which
	// is what a sticky CPM read over a 32 ms window reports.
	worstSeen float64

	// timeSec is elapsed simulated time; wobble holds until nextWobbleAt.
	timeSec      float64
	wobble       float64
	nextWobbleAt float64

	// unitToEvent is the remaining unit-rate exposure until the next
	// worst-case alignment event. Drawing the schedule ahead of time (and
	// consuming rate*dt of exposure per step) keeps the event sequence
	// identical no matter how simulated time is sliced into steps, and lets
	// TimeToNextEvent answer horizon queries without perturbing the stream.
	unitToEvent float64
}

// New creates a model drawing randomness from r (must not be nil).
func New(p Params, r *rng.Source) *Model {
	m := new(Model)
	m.Reset(p, r)
	return m
}

// Reset sets the model's whole state to draw from r (must not be nil),
// for New and for a pooled chip's rewind, which passes its di/dt stream
// rewound in place. The first event-schedule draw is New's, so pooled and
// fresh models generate identical noise histories. The zero Model is a
// valid receiver.
func (m *Model) Reset(p Params, r *rng.Source) {
	if r == nil {
		panic("didt: nil randomness source")
	}
	*m = Model{p: p, r: r, wobble: 1, unitToEvent: r.Exp(1)}
}

// Step produces the chip-wide noise sample for a step of dtSec seconds
// given the profiles of the currently active cores. An empty profile list
// (fully idle chip) yields a small floor ripple from background activity.
//
// The step length is free: all stochastic state is indexed by simulated
// time (wobble redraws at WobbleWindowSec boundaries, events from the
// pre-drawn exposure schedule), so slicing an interval into 1 ms steps or
// crossing it in one macro-step consumes the same draws and produces the
// same events.
func (m *Model) Step(dtSec float64, active []Profile) Sample {
	if !(dtSec > 0) {
		panic(fmt.Sprintf("didt: non-positive step %v", dtSec))
	}
	const floorMV = 1.5 // clock grid and background ripple
	// Refresh the slow wobble at every window boundary the step starts on
	// or has passed (catch-up keeps the draw count time-indexed even when
	// a long idle macro-step skips several windows).
	for m.timeSec+1e-12 >= m.nextWobbleAt {
		m.wobble = 1 + 0.05*m.r.Normal(0, 1)
		m.nextWobbleAt += WobbleWindowSec
	}
	m.timeSec += dtSec

	n := len(active)
	if n == 0 {
		return Sample{TypicalMV: floorMV}
	}

	var sumTyp, maxWorst, sumRate float64
	for _, p := range active {
		sumTyp += p.TypicalMV
		if p.WorstMV > maxWorst {
			maxWorst = p.WorstMV
		}
		sumRate += p.RatePerSec
	}
	meanTyp := sumTyp / float64(n)

	typ := (meanTyp/math.Pow(float64(n), m.p.SmoothingExponent) + floorMV) * m.wobble
	if typ < floorMV {
		typ = floorMV
	}

	s := Sample{TypicalMV: typ}

	// Worst-case alignment events: the per-core rates do not add linearly
	// (events need cross-core coincidence); the combined rate saturates.
	// The step consumes rate*dt of unit-rate exposure against the pre-drawn
	// schedule — an inhomogeneous Poisson process by time change, so rate
	// changes between steps are handled exactly.
	rate := sumRate / math.Sqrt(float64(n))
	if rate > 0 {
		exposure := rate * dtSec
		depth := maxWorst * (1 + m.p.AlignmentGrowth*(math.Sqrt(float64(n))-1))
		for exposure >= m.unitToEvent {
			exposure -= m.unitToEvent
			m.unitToEvent = m.r.Exp(1)
			s.Events++
			// Event-to-event variation: each droop lands within ±20% of
			// the characteristic depth; the sample reports the deepest.
			if d := depth * m.r.Uniform(0.8, 1.2); d > s.WorstEventMV {
				s.WorstEventMV = d
			}
		}
		m.unitToEvent -= exposure
		if s.WorstEventMV > m.worstSeen {
			m.worstSeen = s.WorstEventMV
		}
	}
	return s
}

// TimeToWobbleRefresh returns the simulated seconds until the next
// typical-ripple wobble redraw. Macro-steps must not cross that boundary,
// or the sliced (micro) and unsliced (macro) lanes would apply different
// wobble values to the tail of the window.
func (m *Model) TimeToWobbleRefresh() float64 { return m.nextWobbleAt - m.timeSec }

// TimeToNextEvent returns the simulated seconds until the next scheduled
// worst-case event at the current exposure rate implied by the active
// profiles, +Inf when no events can occur. It is a pure query: the RNG
// stream is untouched, so horizon planning never perturbs the simulation.
func (m *Model) TimeToNextEvent(active []Profile) float64 {
	n := len(active)
	if n == 0 {
		return math.Inf(1)
	}
	var sumRate float64
	for _, p := range active {
		sumRate += p.RatePerSec
	}
	rate := sumRate / math.Sqrt(float64(n))
	if rate <= 0 {
		return math.Inf(1)
	}
	return m.unitToEvent / rate
}

// WorstSinceReset returns the deepest droop since the last StickyReset;
// zero if none occurred.
func (m *Model) WorstSinceReset() float64 { return m.worstSeen }

// StickyReset clears the latched worst droop, as reading a sticky CPM does.
func (m *Model) StickyReset() { m.worstSeen = 0 }

// ExpectedTypicalMV returns the deterministic typical-ripple amplitude for
// the given profiles, used by analytical checks and the firmware's margin
// accounting.
func (p Params) ExpectedTypicalMV(active []Profile) float64 {
	const floorMV = 1.5
	if len(active) == 0 {
		return floorMV
	}
	var sum float64
	for _, pr := range active {
		sum += pr.TypicalMV
	}
	mean := sum / float64(len(active))
	return mean/math.Pow(float64(len(active)), p.SmoothingExponent) + floorMV
}

// ExpectedWorstMV returns the characteristic worst-case droop depth for the
// given profiles.
func (p Params) ExpectedWorstMV(active []Profile) float64 {
	if len(active) == 0 {
		return 0
	}
	var maxWorst float64
	for _, pr := range active {
		if pr.WorstMV > maxWorst {
			maxWorst = pr.WorstMV
		}
	}
	return maxWorst * (1 + p.AlignmentGrowth*(math.Sqrt(float64(len(active)))-1))
}
