// Package power models the POWER7+ Vdd-rail power: per-core switching
// power, voltage- and temperature-dependent leakage, uncore (clock grid and
// L3) power, and the coarse-grained states the paper's schedulers exploit —
// idle-but-clocked cores versus per-core power gating.
//
// The calibration targets the paper's measured ranges: chip power between
// roughly 60 W (one quiet core) and 140 W (eight power-hungry cores) on the
// Vdd rail (Figs. 3a, 10a, 14).
package power

import (
	"fmt"

	"agsim/internal/units"
)

// CoreState is the coarse-grained power state of one core.
type CoreState int

// Core power states. The paper's loadline-borrowing experiment keeps eight
// of sixteen cores "turned on" (IdleOn when unused) and deep-sleeps the rest
// (Gated).
const (
	// Gated: power-gated, only a small residual leak remains.
	Gated CoreState = iota
	// IdleOn: powered and clocked but running no work; pays leakage plus
	// clock-grid power. This is the state of unused cores in the paper's
	// consolidation baseline.
	IdleOn
	// Active: running one or more threads.
	Active
)

// String returns a readable state name.
func (s CoreState) String() string {
	switch s {
	case Gated:
		return "gated"
	case IdleOn:
		return "idle-on"
	case Active:
		return "active"
	default:
		return fmt.Sprintf("CoreState(%d)", int(s))
	}
}

// Params calibrates the power model. All wattages are defined at NominalV
// and NominalT and scaled from there.
type Params struct {
	// CoreCeffNF is the effective switched capacitance of one fully active
	// core in nanofarads; dynamic power is Ceff·a·u·V²·f.
	CoreCeffNF float64

	// CoreLeakW is one core's leakage at nominal voltage and temperature.
	CoreLeakW units.Watt
	// LeakVoltExp is the exponent of leakage's voltage dependence
	// (leakage ≈ nominal·(V/Vnom)^exp); short-channel leakage is
	// super-linear in V, commonly modelled near cubic.
	LeakVoltExp float64
	// LeakTempCoeff is the fractional leakage increase per °C above
	// nominal temperature.
	LeakTempCoeff float64

	// UncoreW is the always-on chip power (clock distribution, L3, chiplet
	// fabric) at nominal voltage; it scales with V².
	UncoreW units.Watt

	// IdleClockW is the extra clock-grid power of an IdleOn core.
	IdleClockW units.Watt
	// ActiveBaseW is the workload-independent overhead of a core that is
	// dispatching instructions at all — fetch, decode and full clock
	// enablement — paid on top of IdleClockW regardless of switching
	// activity. It sets the ~80 W floor of Fig. 10a's eight-core power
	// range. Scales with V².
	ActiveBaseW units.Watt
	// GatedLeakW is the residual power of a power-gated core.
	GatedLeakW units.Watt

	NominalV units.Millivolt
	NominalT units.Celsius
}

// DefaultParams returns the calibration described in DESIGN.md §4.
func DefaultParams() Params {
	return Params{
		CoreCeffNF:    2.2,
		CoreLeakW:     3.6,
		LeakVoltExp:   3.0,
		LeakTempCoeff: 0.008,
		UncoreW:       17,
		IdleClockW:    0.9,
		ActiveBaseW:   1.5,
		GatedLeakW:    0.25,
		NominalV:      1280,
		NominalT:      32,
	}
}

// Validate reports the first nonphysical parameter, or nil.
func (p *Params) Validate() error {
	switch {
	case p.CoreCeffNF <= 0:
		return fmt.Errorf("power: non-positive CoreCeffNF %v", p.CoreCeffNF)
	case p.CoreLeakW < 0 || p.UncoreW < 0 || p.IdleClockW < 0 || p.ActiveBaseW < 0 || p.GatedLeakW < 0:
		return fmt.Errorf("power: negative wattage parameter")
	case p.LeakVoltExp < 1:
		return fmt.Errorf("power: LeakVoltExp %v < 1", p.LeakVoltExp)
	case p.NominalV <= 0:
		return fmt.Errorf("power: non-positive NominalV %v", p.NominalV)
	}
	return nil
}

// vRatio returns V/Vnom, the base of every voltage scaling.
func (p *Params) vRatio(v units.Millivolt) float64 {
	return float64(v) / float64(p.NominalV)
}

// scale returns ratio^exp.
func scale(ratio, exp float64) float64 {
	switch exp {
	case 2:
		return ratio * ratio
	case 3:
		return ratio * ratio * ratio
	default:
		s := 1.0
		for i := 0; i < int(exp); i++ {
			s *= ratio
		}
		return s
	}
}

// Dynamic returns the switching power of one core at on-chip voltage v,
// frequency f, switching-activity factor a, and pipeline utilization u
// (fraction of time not stalled on memory).
func (p *Params) Dynamic(v units.Millivolt, f units.Megahertz, a, u float64) units.Watt {
	if a < 0 || a > 1 || u < 0 || u > 1 {
		panic(fmt.Sprintf("power: activity %v / utilization %v out of [0,1]", a, u))
	}
	volts := v.Volts()
	return units.Watt(p.CoreCeffNF * 1e-9 * a * u * volts * volts * f.Hertz())
}

// Leakage returns one powered core's leakage at voltage v and temperature t.
func (p *Params) Leakage(v units.Millivolt, t units.Celsius) units.Watt {
	return p.leakage(p.vRatio(v), t)
}

// leakage is Leakage at voltage ratio V/Vnom.
func (p *Params) leakage(ratio float64, t units.Celsius) units.Watt {
	w := float64(p.CoreLeakW) * scale(ratio, p.LeakVoltExp)
	w *= 1 + p.LeakTempCoeff*float64(t-p.NominalT)
	if w < 0 {
		w = 0
	}
	return units.Watt(w)
}

// Core returns the total power of one core in the given state.
func (p *Params) Core(state CoreState, v units.Millivolt, f units.Megahertz, a, u float64, t units.Celsius) units.Watt {
	switch state {
	case Gated:
		return p.GatedLeakW
	case IdleOn:
		r := p.vRatio(v)
		return p.leakage(r, t) + units.Watt(float64(p.IdleClockW)*scale(r, 2))
	case Active:
		r := p.vRatio(v)
		return p.leakage(r, t) +
			units.Watt(float64(p.IdleClockW+p.ActiveBaseW)*scale(r, 2)) +
			p.Dynamic(v, f, a, u)
	default:
		panic(fmt.Sprintf("power: unknown core state %d", int(state)))
	}
}

// Uncore returns the shared (non-core) Vdd-rail power at voltage v.
func (p *Params) Uncore(v units.Millivolt) units.Watt {
	return units.Watt(float64(p.UncoreW) * scale(p.vRatio(v), 2))
}
