// Package vf defines the chip's voltage-frequency law: the minimum supply
// voltage the circuit needs to close timing at a given clock frequency, and
// its inverse, the maximum frequency sustainable at a given voltage.
//
// The law is the backbone every other component shares: the CPMs measure
// distance from it, the DPLLs climb toward it in overclocking mode, and the
// firmware undervolts down to it (plus residual margin) in power-saving
// mode. The default calibration follows the paper's Fig. 6a sweep: diagonal
// constant-frequency lines from 2.8 GHz at ~940 mV to the 4.2 GHz peak at
// ~1130 mV, 28 MHz apart.
package vf

import (
	"fmt"

	"agsim/internal/units"
)

// Law is an affine V-f law with the operating limits of one chip.
type Law struct {
	// VRef is the voltage required at FRef.
	VRef units.Millivolt
	// FRef is the reference frequency for FRef.
	FRef units.Megahertz
	// SlopeMVPerMHz is the additional voltage needed per MHz up to FNom.
	SlopeMVPerMHz float64
	// SlopeHighMVPerMHz is the (steeper) slope above FNom: at the top of
	// the V-f curve each extra megahertz costs more voltage, which is why
	// the overclocking range saturates around +10% (Fig. 4a) and why
	// colocation MIPS visibly moves the boosted frequency (Figs. 15, 16).
	SlopeHighMVPerMHz float64

	// FMin and FCeil bound the DPLL range. FCeil is the overclocking cap
	// (the paper reports at most 10% boost over the 4.2 GHz target).
	FMin, FCeil units.Megahertz
	// FNom is the shipping target frequency under a static guardband.
	FNom units.Megahertz

	// VNom is the nominal (static-guardband) supply setting, and VMin the
	// lowest voltage the VRM may be commanded to.
	VNom, VMin units.Millivolt

	// ResidualMV is the margin adaptive guardbanding must always preserve
	// to cover nondeterministic error sources in the mechanism itself
	// (paper §2.1: "the remaining guardband is present as a precautionary
	// measure").
	ResidualMV units.Millivolt
}

// Default returns the POWER7+ calibration used throughout the reproduction.
// Constants are derived in DESIGN.md §4 from Figs. 4a, 6a, 10b, 12a, and 15.
func Default() Law {
	return Law{
		VRef:              940,
		FRef:              2800,
		SlopeMVPerMHz:     (1130.0 - 940.0) / (4200.0 - 2800.0), // ≈0.1357 mV/MHz
		SlopeHighMVPerMHz: 0.20,
		FMin:              2800,
		FNom:              4200,
		FCeil:             4620, // 10% boost cap (Fig. 4a)
		VNom:              1280,
		// VMin caps the undervolt at 100 mV, the deepest reduction the
		// paper observes (Fig. 12a's loadline-borrowing curve); firmware
		// may not trim further regardless of sensed margin because the
		// eliminable portion of the static guardband is bounded (§2.1).
		VMin:       1180,
		ResidualMV: 10,
	}
}

// Validate reports the first inconsistency in the law, or nil.
func (l *Law) Validate() error {
	switch {
	case l.SlopeMVPerMHz <= 0:
		return fmt.Errorf("vf: non-positive slope %v", l.SlopeMVPerMHz)
	case l.SlopeHighMVPerMHz < l.SlopeMVPerMHz:
		return fmt.Errorf("vf: high-frequency slope %v below base slope %v (the curve must steepen)",
			l.SlopeHighMVPerMHz, l.SlopeMVPerMHz)
	case l.FMin <= 0 || l.FMin > l.FNom || l.FNom > l.FCeil:
		return fmt.Errorf("vf: frequency bounds inconsistent: min %v nom %v ceil %v", l.FMin, l.FNom, l.FCeil)
	case l.VMin <= 0 || l.VMin > l.VNom:
		return fmt.Errorf("vf: voltage bounds inconsistent: min %v nom %v", l.VMin, l.VNom)
	case l.ResidualMV < 0:
		return fmt.Errorf("vf: negative residual margin %v", l.ResidualMV)
	case l.VReq(l.FNom)+l.ResidualMV > l.VNom:
		return fmt.Errorf("vf: nominal voltage %v leaves no guardband at %v (need %v)",
			l.VNom, l.FNom, l.VReq(l.FNom)+l.ResidualMV)
	}
	return nil
}

// VReq returns the minimum voltage at which the circuit closes timing at f.
func (l *Law) VReq(f units.Megahertz) units.Millivolt {
	if f <= l.FNom {
		return l.VRef + units.Millivolt(float64(f-l.FRef)*l.SlopeMVPerMHz)
	}
	vNomReq := l.VRef + units.Millivolt(float64(l.FNom-l.FRef)*l.SlopeMVPerMHz)
	return vNomReq + units.Millivolt(float64(f-l.FNom)*l.SlopeHighMVPerMHz)
}

// SlopeAt returns the local dV/df in mV/MHz at frequency f, which sets how
// much voltage relief a fast DPLL slew buys when absorbing a droop.
func (l *Law) SlopeAt(f units.Megahertz) float64 {
	if f <= l.FNom {
		return l.SlopeMVPerMHz
	}
	return l.SlopeHighMVPerMHz
}

// FMax returns the highest frequency the circuit sustains at voltage v,
// clamped to the DPLL range [FMin, FCeil].
func (l *Law) FMax(v units.Millivolt) units.Megahertz {
	vNomReq := l.VRef + units.Millivolt(float64(l.FNom-l.FRef)*l.SlopeMVPerMHz)
	var f units.Megahertz
	if v <= vNomReq {
		f = l.FRef + units.Megahertz(float64(v-l.VRef)/l.SlopeMVPerMHz)
	} else {
		f = l.FNom + units.Megahertz(float64(v-vNomReq)/l.SlopeHighMVPerMHz)
	}
	return units.ClampMHz(f, l.FMin, l.FCeil)
}

// GuardbandMV returns the static guardband at the nominal operating point:
// the excess of VNom over the bare circuit requirement at FNom.
func (l *Law) GuardbandMV() units.Millivolt {
	return l.VNom - l.VReq(l.FNom)
}

// MarginMV returns the timing margin, expressed in millivolts of supply
// slack, available at on-chip voltage v and frequency f. Negative margin
// means the circuit is violating timing (a droop the DPLL failed to cover).
func (l *Law) MarginMV(v units.Millivolt, f units.Megahertz) units.Millivolt {
	return v - l.VReq(f)
}
