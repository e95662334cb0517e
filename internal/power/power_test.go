package power

import (
	"math"
	"testing"
	"testing/quick"

	"agsim/internal/units"
)

func TestDefaultValid(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicScalesQuadraticallyWithVoltage(t *testing.T) {
	p := DefaultParams()
	base := p.Dynamic(1000, 4200, 0.8, 1)
	doubled := p.Dynamic(2000, 4200, 0.8, 1)
	if r := float64(doubled) / float64(base); math.Abs(r-4) > 1e-9 {
		t.Errorf("V doubling scaled dynamic power by %v, want 4", r)
	}
}

func TestDynamicLinearInFrequencyActivityUtilization(t *testing.T) {
	p := DefaultParams()
	base := p.Dynamic(1250, 2100, 0.4, 0.5)
	if r := float64(p.Dynamic(1250, 4200, 0.4, 0.5)) / float64(base); math.Abs(r-2) > 1e-9 {
		t.Errorf("f doubling ratio = %v", r)
	}
	if r := float64(p.Dynamic(1250, 2100, 0.8, 0.5)) / float64(base); math.Abs(r-2) > 1e-9 {
		t.Errorf("activity doubling ratio = %v", r)
	}
	if r := float64(p.Dynamic(1250, 2100, 0.4, 1.0)) / float64(base); math.Abs(r-2) > 1e-9 {
		t.Errorf("utilization doubling ratio = %v", r)
	}
}

func TestDynamicPanicsOutOfRange(t *testing.T) {
	p := DefaultParams()
	for _, tc := range [][2]float64{{-0.1, 0.5}, {1.1, 0.5}, {0.5, -0.1}, {0.5, 1.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for a=%v u=%v", tc[0], tc[1])
				}
			}()
			p.Dynamic(1250, 4200, tc[0], tc[1])
		}()
	}
}

func TestLeakageVoltageAndTemperature(t *testing.T) {
	p := DefaultParams()
	nominal := p.Leakage(p.NominalV, p.NominalT)
	if math.Abs(float64(nominal-p.CoreLeakW)) > 1e-9 {
		t.Errorf("nominal leakage = %v, want %v", nominal, p.CoreLeakW)
	}
	// Leakage rises super-linearly with voltage.
	lower := p.Leakage(p.NominalV-100, p.NominalT)
	dropFrac := 1 - float64(lower)/float64(nominal)
	vFrac := 100.0 / float64(p.NominalV)
	if dropFrac < 2*vFrac {
		t.Errorf("leakage voltage sensitivity too weak: %v for ΔV frac %v", dropFrac, vFrac)
	}
	// Hotter chip leaks more.
	if hot := p.Leakage(p.NominalV, p.NominalT+20); hot <= nominal {
		t.Error("leakage should rise with temperature")
	}
	// Pathological cold temperatures must not go negative.
	if cold := p.Leakage(p.NominalV, -300); cold < 0 {
		t.Errorf("negative leakage %v", cold)
	}
}

func TestCoreStates(t *testing.T) {
	p := DefaultParams()
	v, f := p.NominalV, units.Megahertz(4200)
	gated := p.Core(Gated, v, f, 0.8, 1, p.NominalT)
	idle := p.Core(IdleOn, v, f, 0.8, 1, p.NominalT)
	active := p.Core(Active, v, f, 0.8, 1, p.NominalT)
	if !(gated < idle && idle < active) {
		t.Errorf("state ordering violated: gated %v idle %v active %v", gated, idle, active)
	}
	if gated != p.GatedLeakW {
		t.Errorf("gated power = %v", gated)
	}
	// Power gating must remove the large majority of idle power — this is
	// the mechanism loadline borrowing banks on.
	if float64(gated) > 0.2*float64(idle) {
		t.Errorf("gating saves too little: %v vs idle %v", gated, idle)
	}
}

func TestChipPowerRangeMatchesPaper(t *testing.T) {
	// Eight power-hungry cores should land near the top of the paper's
	// 80-140 W Fig. 10a range; eight quiet memory-bound cores near the
	// bottom; a single active core near Fig. 3a's ~60 W.
	p := DefaultParams()
	v, f := p.NominalV, units.Megahertz(4200)
	chip := func(active int, a, u float64) float64 {
		total := float64(p.Uncore(v))
		for i := 0; i < 8; i++ {
			if i < active {
				total += float64(p.Core(Active, v, f, a, u, p.NominalT))
			} else {
				total += float64(p.Core(IdleOn, v, f, 0, 0, p.NominalT))
			}
		}
		return total
	}
	if got := chip(8, 0.82, 0.92); got < 115 || got > 165 {
		t.Errorf("hungry 8-core chip = %.1f W, want 115-165", got)
	}
	if got := chip(8, 0.35, 0.45); got < 55 || got > 90 {
		t.Errorf("quiet 8-core chip = %.1f W, want 55-90", got)
	}
	if got := chip(1, 0.8, 0.87); got < 50 || got > 75 {
		t.Errorf("one-core chip = %.1f W, want 50-75", got)
	}
}

func TestUncoreScalesWithVSquared(t *testing.T) {
	p := DefaultParams()
	base := p.Uncore(p.NominalV)
	half := p.Uncore(p.NominalV / 2)
	if r := float64(base) / float64(half); math.Abs(r-4) > 1e-9 {
		t.Errorf("uncore voltage scaling ratio = %v", r)
	}
}

func TestPowerNonNegativeProperty(t *testing.T) {
	p := DefaultParams()
	f := func(vRaw, fRaw, aRaw, uRaw float64) bool {
		v := units.Millivolt(600 + math.Mod(math.Abs(vRaw), 800))
		fr := units.Megahertz(2800 + math.Mod(math.Abs(fRaw), 1820))
		a := math.Mod(math.Abs(aRaw), 1)
		u := math.Mod(math.Abs(uRaw), 1)
		for _, st := range []CoreState{Gated, IdleOn, Active} {
			if p.Core(st, v, fr, a, u, 45) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		func() Params { p := DefaultParams(); p.CoreCeffNF = 0; return p }(),
		func() Params { p := DefaultParams(); p.CoreLeakW = -1; return p }(),
		func() Params { p := DefaultParams(); p.LeakVoltExp = 0.5; return p }(),
		func() Params { p := DefaultParams(); p.NominalV = 0; return p }(),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestCoreStateString(t *testing.T) {
	if Gated.String() != "gated" || IdleOn.String() != "idle-on" || Active.String() != "active" {
		t.Error("state names wrong")
	}
	if CoreState(9).String() == "" {
		t.Error("unknown state should format")
	}
}

var sinkW units.Watt

// BenchmarkParamsCoreActive times one Active core's power at a settled
// operating point, the per-core call that opens every step.
func BenchmarkParamsCoreActive(b *testing.B) {
	p := DefaultParams()
	vs := []units.Millivolt{1170, 1182, 1191, 1203}
	fs := []units.Megahertz{4200, 4310, 4420, 3900}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		sinkW = p.Core(Active, vs[i&3], fs[i&3], 0.72, 0.9, 55)
		i++
	}
}
