package vrm

import (
	"math"
	"testing"
	"testing/quick"

	"agsim/internal/units"
)

func newTestRail(t *testing.T) *Rail {
	t.Helper()
	r, err := NewRail("vdd0", 0.45, 1250, 1300, 200)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLoadlineLinear(t *testing.T) {
	r := newTestRail(t)
	// 100 A through 0.45 mΩ sags 45 mV.
	if v := r.Output(100); math.Abs(float64(v-(1250-45))) > 1e-9 {
		t.Errorf("Output(100A) = %v", v)
	}
	if v := r.Output(0); v != 1250 {
		t.Errorf("Output(0) = %v, want set point", v)
	}
}

func TestLoadlineSuperposition(t *testing.T) {
	// drop(a+b) = drop(a) + drop(b): the loadline is purely resistive.
	r := newTestRail(t)
	f := func(aRaw, bRaw float64) bool {
		a := units.Ampere(math.Mod(math.Abs(aRaw), 100))
		b := units.Ampere(math.Mod(math.Abs(bRaw), 100))
		sum := r.LoadlineDropMV(a + b)
		parts := r.LoadlineDropMV(a) + r.LoadlineDropMV(b)
		return math.Abs(float64(sum-parts)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommandClamps(t *testing.T) {
	r := newTestRail(t)
	r.Command(2000)
	if r.SetPoint() != 1300 {
		t.Errorf("Command above VMax gave %v", r.SetPoint())
	}
	r.Command(-5)
	if r.SetPoint() != 1 {
		t.Errorf("Command below zero gave %v", r.SetPoint())
	}
	r.Command(1100)
	if r.SetPoint() != 1100 {
		t.Errorf("Command(1100) gave %v", r.SetPoint())
	}
}

func TestOvercurrentFoldback(t *testing.T) {
	r := newTestRail(t)
	within := r.Output(200)
	beyond := r.Output(250)
	// Foldback adds extra sag beyond the linear loadline.
	linear := 1250 - r.LoadlineDropMV(250)
	if beyond >= linear {
		t.Errorf("no foldback: %v vs linear %v", beyond, linear)
	}
	if beyond >= within {
		t.Error("foldback should deepen with overcurrent")
	}
}

func TestOutputNeverNegative(t *testing.T) {
	r, err := NewRail("sag", 50, 1000, 1300, 10)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Output(1000); v < 0 {
		t.Errorf("Output = %v, want clamped at 0", v)
	}
}

func TestOutputPanicsOnNegativeCurrent(t *testing.T) {
	r := newTestRail(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Output(-1)
}

func TestSenseCurrentQuantized(t *testing.T) {
	r := newTestRail(t)
	r.Output(100.13)
	got := r.SenseCurrent()
	if math.Abs(float64(got)-100.25) > 1e-9 {
		t.Errorf("SenseCurrent = %v, want 100.25 (0.25 A LSB)", got)
	}
	r.SenseLSB = 0
	if got := r.SenseCurrent(); got != 100.13 {
		t.Errorf("unquantized SenseCurrent = %v", got)
	}
}

func TestStuckSensor(t *testing.T) {
	r := newTestRail(t)
	r.Output(80)
	r.StickSensor()
	r.Output(160)
	if got := r.SenseCurrent(); got != 80 {
		t.Errorf("stuck sensor reported %v, want 80", got)
	}
	r.UnstickSensor()
	if got := r.SenseCurrent(); got != 160 {
		t.Errorf("unstuck sensor reported %v, want 160", got)
	}
}

func TestNewRailValidation(t *testing.T) {
	cases := []struct {
		name       string
		loadline   float64
		vset, vmax units.Millivolt
		maxI       units.Ampere
	}{
		{"neg-loadline", -1, 1250, 1300, 200},
		{"zero-vset", 0.45, 0, 1300, 200},
		{"vset-above-vmax", 0.45, 1400, 1300, 200},
		{"zero-current", 0.45, 1250, 1300, 0},
	}
	for _, tc := range cases {
		if _, err := NewRail(tc.name, tc.loadline, tc.vset, tc.vmax, tc.maxI); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}
