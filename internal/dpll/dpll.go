// Package dpll models the per-core digital phase-locked loops of the
// POWER7+ (paper §2.2): each core's clock generator can slew its frequency
// independently and quickly (7% in under 10 ns) while the clock stays
// active, which is what lets the chip ride out voltage droops by briefly
// slowing down instead of failing timing.
//
// At the simulator's millisecond step the multi-nanosecond slew is
// effectively instantaneous for steady-state tracking; what the model keeps
// is the slew *limit* per step, the frequency floor/ceiling, and the
// droop-reaction accounting used to verify that adaptive guardbanding
// absorbs worst-case di/dt events without timing violations.
package dpll

import (
	"fmt"

	"agsim/internal/units"
	"agsim/internal/vf"
)

// DPLL is one core's clock generator.
type DPLL struct {
	// law is the chip's immutable V–f law, set by Reset. It is
	// configuration, not state, so the snapshot codec skips it: a restore
	// target was built with the same law.
	law vf.Law `snapshot:"-"`

	freq units.Megahertz

	// MaxSlewFracPerStep bounds how far the frequency may move in one
	// control step as a fraction of current frequency. The hardware does
	// 7% in 10 ns; a 1 ms simulation step therefore allows many slews, but
	// keeping a per-step cap (default 25%) retains the loop's first-order
	// settling dynamics without oscillation.
	MaxSlewFracPerStep float64

	// FastSlewFracOverride, when positive, replaces the hardware default
	// droop-reaction authority (FastSlewFrac). Ablation experiments use
	// it to quantify how much of the guardband reduction the fast slew
	// makes safe.
	FastSlewFracOverride float64

	// droopsAbsorbed counts worst-case droop events the DPLL covered by
	// slewing down; timingViolations counts events too deep even for the
	// 7% fast slew (these would be guardband failures on real hardware and
	// must stay zero in a correctly calibrated system).
	droopsAbsorbed   int
	timingViolations int
}

// FastSlewFrac is the droop-reaction authority of the hardware fast path:
// the DPLL can shed this fraction of frequency fast enough to catch an
// inductive droop in flight (paper: "as fast as 7% in less than 10 ns").
const FastSlewFrac = 0.07

// New creates a DPLL at the law's nominal frequency.
func New(law vf.Law) *DPLL {
	d := new(DPLL)
	d.Reset(law)
	return d
}

// Reset sets the DPLL's whole state, for New and for a pooled chip's
// rewind: nominal frequency, default slew bound, no ablation override,
// zeroed droop statistics.
func (d *DPLL) Reset(law vf.Law) {
	*d = DPLL{law: law, freq: law.FNom, MaxSlewFracPerStep: 0.25}
}

// Freq returns the current output frequency.
func (d *DPLL) Freq() units.Megahertz { return d.freq }

// SetFreq forces the output frequency (used when entering a mode), clamped
// to the law's range.
func (d *DPLL) SetFreq(f units.Megahertz) {
	d.freq = units.ClampMHz(f, d.law.FMin, d.law.FCeil)
}

// SlewToward moves the frequency toward target, respecting the per-step
// slew bound and the law's range, and returns the new frequency.
func (d *DPLL) SlewToward(target units.Megahertz) units.Megahertz {
	target = units.ClampMHz(target, d.law.FMin, d.law.FCeil)
	maxDelta := units.Megahertz(float64(d.freq) * d.MaxSlewFracPerStep)
	switch {
	case target > d.freq+maxDelta:
		d.freq += maxDelta
	case target < d.freq-maxDelta:
		d.freq -= maxDelta
	default:
		d.freq = target
	}
	return d.freq
}

// SettledWithin reports whether the DPLL sits within tolMHz of target,
// the quiescence detector's check: the overclock tracking target itself
// drifts by micro-MHz with thermal leakage, so an exact match may never
// hold.
func (d *DPLL) SettledWithin(target units.Megahertz, tolMHz float64) bool {
	target = units.ClampMHz(target, d.law.FMin, d.law.FCeil)
	delta := float64(target - d.freq)
	return delta <= tolMHz && delta >= -tolMHz
}

// TrackMargin is the closed-loop step of overclocking mode: given the
// core's minimum available on-chip voltage (bottom of the typical ripple),
// slew toward the highest frequency that leaves the calibrated residual
// margin.
func (d *DPLL) TrackMargin(coreMinV units.Millivolt) units.Megahertz {
	return d.SlewToward(d.law.FMax(coreMinV - d.law.ResidualMV))
}

// AbsorbDroop accounts for one worst-case droop of the given depth hitting
// the core at on-chip voltage v (pre-droop, bottom-of-ripple). If shedding
// the fast-slew authority covers the droop, it is absorbed; otherwise it is
// a timing violation. Returns whether the droop was absorbed.
//
// The voltage worth of the fast slew comes from the V-f law: dropping
// frequency by a fraction s is worth s*f*slope millivolts of requirement.
func (d *DPLL) AbsorbDroop(v units.Millivolt, depthMV float64) bool {
	if depthMV < 0 {
		panic(fmt.Sprintf("dpll: negative droop depth %v", depthMV))
	}
	// Margin before the droop (above bare V_req at current frequency).
	margin := float64(d.law.MarginMV(v, d.freq))
	// Requirement relief from the fast slew, at the local curve slope.
	slew := FastSlewFrac
	if d.FastSlewFracOverride > 0 {
		slew = d.FastSlewFracOverride
	}
	relief := slew * float64(d.freq) * d.law.SlopeAt(d.freq)
	if margin+relief >= depthMV {
		d.droopsAbsorbed++
		return true
	}
	d.timingViolations++
	return false
}

// DroopsAbsorbed returns the count of droops covered by fast slewing.
func (d *DPLL) DroopsAbsorbed() int { return d.droopsAbsorbed }

// TimingViolations returns the count of droops that exceeded the DPLL's
// reach. Nonzero means the guardband configuration is unsafe.
func (d *DPLL) TimingViolations() int { return d.timingViolations }

// ResetCounters clears the droop statistics.
func (d *DPLL) ResetCounters() { d.droopsAbsorbed, d.timingViolations = 0, 0 }
