package dpll

import (
	"math"
	"testing"

	"agsim/internal/units"
	"agsim/internal/vf"
)

func TestNewStartsAtNominal(t *testing.T) {
	law := vf.Default()
	d := New(law)
	if d.Freq() != law.FNom {
		t.Errorf("initial freq = %v, want %v", d.Freq(), law.FNom)
	}
}

func TestSetFreqClamps(t *testing.T) {
	law := vf.Default()
	d := New(law)
	d.SetFreq(9999)
	if d.Freq() != law.FCeil {
		t.Errorf("SetFreq above ceiling gave %v", d.Freq())
	}
	d.SetFreq(100)
	if d.Freq() != law.FMin {
		t.Errorf("SetFreq below floor gave %v", d.Freq())
	}
}

func TestSlewBounded(t *testing.T) {
	law := vf.Default()
	d := New(law)
	d.SetFreq(3000)
	before := d.Freq()
	d.SlewToward(law.FCeil)
	maxStep := units.Megahertz(float64(before) * d.MaxSlewFracPerStep)
	if d.Freq() > before+maxStep {
		t.Errorf("slew exceeded bound: %v from %v", d.Freq(), before)
	}
	// Repeated slews must converge to the target.
	for i := 0; i < 20; i++ {
		d.SlewToward(law.FCeil)
	}
	if d.Freq() != law.FCeil {
		t.Errorf("did not converge: %v", d.Freq())
	}
}

func TestSlewDownward(t *testing.T) {
	law := vf.Default()
	d := New(law)
	for i := 0; i < 20; i++ {
		d.SlewToward(law.FMin)
	}
	if d.Freq() != law.FMin {
		t.Errorf("did not reach floor: %v", d.Freq())
	}
}

func TestTrackMarginConvergesToLaw(t *testing.T) {
	law := vf.Default()
	d := New(law)
	// Plenty of voltage: 1230 mV available at the core. The loop must
	// converge to FMax(1230 - residual).
	want := law.FMax(1230 - law.ResidualMV)
	for i := 0; i < 30; i++ {
		d.TrackMargin(1230)
	}
	if math.Abs(float64(d.Freq()-want)) > 1e-9 {
		t.Errorf("TrackMargin converged to %v, want %v", d.Freq(), want)
	}
	// The converged frequency leaves at least the residual margin.
	if law.MarginMV(1230, d.Freq()) < law.ResidualMV {
		t.Error("converged frequency violates residual margin")
	}
}

func TestTrackMarginNeverExceedsCeiling(t *testing.T) {
	law := vf.Default()
	d := New(law)
	for i := 0; i < 50; i++ {
		d.TrackMargin(2000)
	}
	if d.Freq() > law.FCeil {
		t.Errorf("exceeded ceiling: %v", d.Freq())
	}
}

func TestAbsorbDroop(t *testing.T) {
	law := vf.Default()
	d := New(law)
	d.SetFreq(law.FNom)
	v := law.VReq(law.FNom) + 20 // 20 mV above requirement

	// Fast slew is worth ~7% * 4200 MHz * slope ≈ 40 mV; a 50 mV droop on
	// 20 mV margin is absorbable (20+40 > 50).
	if !d.AbsorbDroop(v, 50) {
		t.Error("moderate droop should be absorbed")
	}
	if d.DroopsAbsorbed() != 1 {
		t.Errorf("DroopsAbsorbed = %d", d.DroopsAbsorbed())
	}
	// A 100 mV droop exceeds margin + slew authority.
	if d.AbsorbDroop(v, 100) {
		t.Error("deep droop should violate timing")
	}
	if d.TimingViolations() != 1 {
		t.Errorf("TimingViolations = %d", d.TimingViolations())
	}
	d.ResetCounters()
	if d.DroopsAbsorbed() != 0 || d.TimingViolations() != 0 {
		t.Error("counters not reset")
	}
}

func TestAbsorbDroopPanicsOnNegative(t *testing.T) {
	d := New(vf.Default())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.AbsorbDroop(1200, -1)
}

func TestFastSlewAuthorityMatchesPaper(t *testing.T) {
	// The 7% in <10ns figure: at 4.2 GHz the relief is ~294 MHz worth of
	// requirement, i.e. ~40 mV. Check the derived constant stays in that
	// neighbourhood so droop-tolerance conclusions track the paper.
	law := vf.Default()
	relief := FastSlewFrac * float64(law.FNom) * law.SlopeMVPerMHz
	if relief < 30 || relief > 50 {
		t.Errorf("fast slew relief = %v mV, want ~40", relief)
	}
}

var sinkMHz units.Megahertz

// BenchmarkTrackMargin times one overclock fast-loop step: the law's
// FMax at the core's ripple-bottom voltage, then the bounded slew toward
// it. The voltage alternates by 1 mV, as the ripple redraws move it, so
// every call moves the clock.
func BenchmarkTrackMargin(b *testing.B) {
	d := New(vf.Default())
	volts := [2]units.Millivolt{1180, 1181}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		sinkMHz = d.TrackMargin(volts[i&1])
		i++
	}
}

var sinkAbsorbed bool

// BenchmarkAbsorbDroop times one droop reaction at nominal frequency:
// the margin before the droop and the fast slew's relief, both from the
// law. Depths alternate between an absorbed droop and a timing violation.
func BenchmarkAbsorbDroop(b *testing.B) {
	law := vf.Default()
	d := New(law)
	v := law.VReq(law.FNom) + 20
	depths := [2]float64{50, 100}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		sinkAbsorbed = d.AbsorbDroop(v, depths[i&1])
		i++
	}
}
