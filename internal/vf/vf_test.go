package vf

import (
	"math"
	"testing"
	"testing/quick"

	"agsim/internal/units"
)

func TestDefaultValid(t *testing.T) {
	l := Default()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrationPoints(t *testing.T) {
	l := Default()
	// Fig. 6a anchors: ~940 mV at 2.8 GHz, ~1130 mV at 4.2 GHz.
	if v := l.VReq(2800); math.Abs(float64(v-940)) > 1e-9 {
		t.Errorf("VReq(2800) = %v", v)
	}
	if v := l.VReq(4200); math.Abs(float64(v-1130)) > 1e-9 {
		t.Errorf("VReq(4200) = %v", v)
	}
	// Static guardband ≈ 150 mV at nominal.
	if gb := l.GuardbandMV(); gb < 130 || gb > 170 {
		t.Errorf("GuardbandMV = %v, want 130-170", gb)
	}
	// The firmware undervolt authority (VNom - VMin) is ~100 mV, the
	// deepest reduction Fig. 12a shows.
	if auth := l.VNom - l.VMin; auth < 80 || auth > 120 {
		t.Errorf("undervolt authority = %v, want 80-120", auth)
	}
	// The boost ceiling is 10% over nominal (Fig. 4a).
	if boost := float64(l.FCeil)/float64(l.FNom) - 1; math.Abs(boost-0.10) > 0.001 {
		t.Errorf("boost cap = %v, want 0.10", boost)
	}
}

func TestVReqFMaxInverse(t *testing.T) {
	l := Default()
	f := func(raw float64) bool {
		fr := units.Megahertz(2800 + math.Mod(math.Abs(raw), 1820)) // within [FMin, FCeil]
		v := l.VReq(fr)
		back := l.FMax(v)
		return math.Abs(float64(back-fr)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFMaxClamps(t *testing.T) {
	l := Default()
	if f := l.FMax(2000); f != l.FCeil {
		t.Errorf("FMax(very high V) = %v, want ceiling %v", f, l.FCeil)
	}
	if f := l.FMax(200); f != l.FMin {
		t.Errorf("FMax(very low V) = %v, want floor %v", f, l.FMin)
	}
}

func TestVReqMonotone(t *testing.T) {
	l := Default()
	prev := l.VReq(l.FMin)
	for f := l.FMin + 28; f <= l.FCeil; f += 28 {
		v := l.VReq(f)
		if v <= prev {
			t.Fatalf("VReq not strictly increasing at %v", f)
		}
		prev = v
	}
}

func TestMargin(t *testing.T) {
	l := Default()
	// At nominal V and F the margin equals the guardband.
	if m := l.MarginMV(l.VNom, l.FNom); m != l.GuardbandMV() {
		t.Errorf("MarginMV = %v, want %v", m, l.GuardbandMV())
	}
	// Below V_req the margin is negative.
	if m := l.MarginMV(l.VReq(4200)-5, 4200); m >= 0 {
		t.Errorf("MarginMV below req = %v, want negative", m)
	}
}

func TestValidateRejectsBadLaws(t *testing.T) {
	bad := []Law{
		func() Law { l := Default(); l.SlopeMVPerMHz = 0; return l }(),
		func() Law { l := Default(); l.FMin = 5000; return l }(),
		func() Law { l := Default(); l.FCeil = 4000; return l }(),
		func() Law { l := Default(); l.VMin = 2000; return l }(),
		func() Law { l := Default(); l.ResidualMV = -1; return l }(),
		func() Law { l := Default(); l.VNom = 1135; return l }(), // no guardband left
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestDVFSTable(t *testing.T) {
	l := Default()
	table := l.DVFSTable(6)
	if len(table) != 6 {
		t.Fatalf("table size = %d", len(table))
	}
	if table[0].Freq != l.FMin || table[5].Freq != l.FNom {
		t.Errorf("endpoints wrong: %v .. %v", table[0].Freq, table[5].Freq)
	}
	gb := l.GuardbandMV()
	for i, p := range table {
		if i > 0 && (p.Freq <= table[i-1].Freq || p.Volt <= table[i-1].Volt) {
			t.Errorf("table not monotone at %d", i)
		}
		if got := p.Volt - l.VReq(p.Freq); got != gb {
			t.Errorf("point %d guardband = %v, want %v", i, got, gb)
		}
	}
}

func TestDVFSTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := Default()
	l.DVFSTable(1)
}

var (
	sinkMV  units.Millivolt
	sinkMHz units.Megahertz
)

// benchVolts and benchFreqs are settled per-core operating points (aged
// ripple-bottom voltage, DPLL frequency) the step kernel queries the law at.
var (
	benchVolts = []units.Millivolt{1150, 1162, 1171, 1183}
	benchFreqs = []units.Megahertz{4200, 4310, 4420, 3900}
)

// BenchmarkLawMarginMV times the margin query every clocked core makes
// each step (the violation check and the DPLL's droop absorption).
func BenchmarkLawMarginMV(b *testing.B) {
	law := Default()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		sinkMV = law.MarginMV(benchVolts[i&3], benchFreqs[i&3])
		i++
	}
}

// BenchmarkLawFMax times the frequency-target query the undervolt and
// overclock fast loops make per clocked core per step.
func BenchmarkLawFMax(b *testing.B) {
	law := Default()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		sinkMHz = law.FMax(benchVolts[i&3] - law.ResidualMV)
		i++
	}
}
