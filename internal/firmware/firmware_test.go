package firmware

import (
	"testing"

	"agsim/internal/cpm"
	"agsim/internal/units"
	"agsim/internal/vf"
)

func reading(min, sticky int) MarginReading {
	return MarginReading{MinCPM: min, MinStickyCPM: sticky, MVPerBit: 21}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{Static: "static", Undervolt: "undervolt", Overclock: "overclock", Manual: "manual"} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
	if Mode(42).String() == "" {
		t.Error("unknown mode should format")
	}
}

// TestParseModeRoundTrip: ParseMode inverts String for the three run
// modes and refuses manual and unknown names.
func TestParseModeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Mode
		ok   bool
	}{
		{"static", Static, true},
		{"undervolt", Undervolt, true},
		{"overclock", Overclock, true},
		{"manual", 0, false},
		{"turbo", 0, false},
		{"", 0, false},
		{"Static", 0, false},
	} {
		m, err := ParseMode(tc.name)
		if (err == nil) != tc.ok {
			t.Errorf("ParseMode(%q) error = %v, want ok %v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && (m != tc.want || m.String() != tc.name) {
			t.Errorf("ParseMode(%q) = %v, want %v", tc.name, m, tc.want)
		}
	}
}

func TestStaticAndOverclockHoldNominalVoltage(t *testing.T) {
	law := vf.Default()
	for _, m := range []Mode{Static, Overclock} {
		c := NewController(law)
		c.SetMode(m)
		if v := c.VoltageCommand(1100, reading(8, 8)); v != law.VNom {
			t.Errorf("%v mode commanded %v, want nominal %v", m, v, law.VNom)
		}
	}
}

func TestManualLeavesVoltageAlone(t *testing.T) {
	c := NewController(vf.Default())
	c.SetMode(Manual)
	if v := c.VoltageCommand(1042, reading(0, 0)); v != 1042 {
		t.Errorf("manual mode commanded %v, want unchanged", v)
	}
}

func TestUndervoltStepsDownOnExcessMargin(t *testing.T) {
	law := vf.Default()
	c := NewController(law)
	c.SetMode(Undervolt)
	v := c.VoltageCommand(law.VNom, reading(8, 8))
	if v >= law.VNom {
		t.Errorf("excess margin did not undervolt: %v", v)
	}
	// Step bounded.
	if law.VNom-v > units.Millivolt(c.MaxStepDownMV)+1e-9 {
		t.Errorf("step %v exceeds bound %v", law.VNom-v, c.MaxStepDownMV)
	}
}

func TestUndervoltStepsUpOnLowMargin(t *testing.T) {
	law := vf.Default()
	c := NewController(law)
	c.SetMode(Undervolt)
	v := c.VoltageCommand(1150, reading(0, 0))
	if v <= 1150 {
		t.Errorf("low margin did not raise voltage: %v", v)
	}
}

func TestUndervoltHoldsAtTarget(t *testing.T) {
	law := vf.Default()
	c := NewController(law)
	c.SetMode(Undervolt)
	if v := c.VoltageCommand(1180, reading(cpm.CalibTarget, cpm.CalibTarget)); v != 1180 {
		t.Errorf("at-target reading moved voltage to %v", v)
	}
}

func TestUndervoltConvergence(t *testing.T) {
	// Closed-loop sanity: simulate a plant where the CPM value is the
	// margin over (VReq+residual) at the commanded voltage minus a fixed
	// passive drop. The controller must settle at the voltage that puts
	// the CPM at its calibration target, i.e. VReq + residual + drop.
	law := vf.Default()
	c := NewController(law)
	c.SetMode(Undervolt)
	const dropMV = 65.0
	const mvPerBit = 21.0
	v := law.VNom
	plant := func(v units.Millivolt) int {
		margin := float64(v) - dropMV - float64(law.VReq(law.FNom)) - float64(law.ResidualMV)
		val := cpm.CalibTarget + int(margin/mvPerBit+0.5)
		if val < 0 {
			val = 0
		}
		if val > cpm.MaxValue {
			val = cpm.MaxValue
		}
		return val
	}
	for i := 0; i < 200; i++ {
		val := plant(v)
		v = c.VoltageCommand(v, MarginReading{MinCPM: val, MinStickyCPM: val, MVPerBit: mvPerBit})
	}
	want := float64(law.VReq(law.FNom)) + float64(law.ResidualMV) + dropMV
	if got := float64(v); got < want-1 || got > want+mvPerBit {
		t.Errorf("converged to %v, want ~%v (within one CPM bit)", got, want)
	}
	if c.Ticks() != 200 {
		t.Errorf("Ticks = %d", c.Ticks())
	}
}

func TestUndervoltNeverLeavesBounds(t *testing.T) {
	law := vf.Default()
	c := NewController(law)
	c.SetMode(Undervolt)
	v := law.VNom
	// Margin always huge: the controller keeps stepping down but must stop
	// at VMin.
	for i := 0; i < 1000; i++ {
		v = c.VoltageCommand(v, reading(cpm.MaxValue, cpm.MaxValue))
		if v < law.VMin {
			t.Fatalf("undervolted below VMin: %v", v)
		}
	}
	if v != law.VMin {
		t.Errorf("did not reach VMin: %v", v)
	}
	// Margin always zero: the controller steps up but must stop at VNom.
	for i := 0; i < 1000; i++ {
		v = c.VoltageCommand(v, reading(0, 0))
		if v > law.VNom {
			t.Fatalf("overvolted above VNom: %v", v)
		}
	}
	if v != law.VNom {
		t.Errorf("did not recover to VNom: %v", v)
	}
}

func TestStickyDroopTriggersRaise(t *testing.T) {
	law := vf.Default()
	c := NewController(law)
	c.SetMode(Undervolt)
	// Sample read says fine (at target), but a droop pushed the sticky
	// minimum to zero during the window: the controller must raise.
	v := c.VoltageCommand(1180, MarginReading{MinCPM: cpm.CalibTarget, MinStickyCPM: 0, MVPerBit: 21})
	if v <= 1180 {
		t.Errorf("sticky droop ignored: %v", v)
	}
	// A sticky value above target (stale latch) must not cause a raise.
	v2 := c.VoltageCommand(1180, MarginReading{MinCPM: cpm.CalibTarget, MinStickyCPM: 9, MVPerBit: 21})
	if v2 != 1180 {
		t.Errorf("high sticky mis-handled: %v", v2)
	}
}

func TestDeadCPMFailsSafe(t *testing.T) {
	law := vf.Default()
	c := NewController(law)
	c.SetMode(Undervolt)
	v := c.VoltageCommand(1150, MarginReading{MinCPM: 9, MinStickyCPM: 9, MVPerBit: 21, AnyDead: true})
	if v != law.VNom {
		t.Errorf("dead CPM must force static guardband, got %v", v)
	}
}

func TestFrequencyTargets(t *testing.T) {
	law := vf.Default()
	c := NewController(law)
	c.SetMode(Static)
	if f := c.FrequencyTarget(); f != law.FNom {
		t.Errorf("static target = %v", f)
	}
	c.SetMode(Undervolt)
	if f := c.FrequencyTarget(); f != law.FNom {
		t.Errorf("undervolt target = %v", f)
	}
	c.SetMode(Overclock)
	if f := c.FrequencyTarget(); f != law.FCeil {
		t.Errorf("overclock target = %v", f)
	}
	c.SetMode(Manual)
	if f := c.FrequencyTarget(); f != 0 {
		t.Errorf("manual target = %v", f)
	}
}

func TestUndervoltMV(t *testing.T) {
	law := vf.Default()
	c := NewController(law)
	if got := c.UndervoltMV(law.VNom - 42); got != 42 {
		t.Errorf("UndervoltMV = %v", got)
	}
}

func TestVoltageCommandPanicsOnBadSensitivity(t *testing.T) {
	c := NewController(vf.Default())
	c.SetMode(Undervolt)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.VoltageCommand(1200, MarginReading{MinCPM: 5, MinStickyCPM: 5, MVPerBit: 0})
}

// TestCountFixedTicksMatchesCommands: where the controller repeats its
// last command, one VoltageCommand and CountFixedTicks(n-1) leave it as n
// commands at that set point do. In each fixed mode that holds whatever
// the readings; in Undervolt, for unclamped holds: readings whose worst CPM
// sits on the calibration target with no sticky read below it, at any
// sensitivity and at sensed currents whose floor stays below the set
// point. Undervolt refuses to count after anything else: a fresh
// controller (its zero record reads hold and no bound), a boost, a
// throttle, a hold clamped to the floor or the ceiling, and a fail-safe.
func TestCountFixedTicksMatchesCommands(t *testing.T) {
	law := vf.Default()
	hold := func(i int) MarginReading {
		return MarginReading{MinCPM: cpm.CalibTarget, MinStickyCPM: cpm.CalibTarget + i%3,
			MVPerBit: 12 + float64(i), CurrentA: 40 + float64(i)}
	}
	for _, m := range []Mode{Static, Overclock, Manual, Undervolt} {
		for _, set := range []units.Millivolt{law.VNom, law.VNom - 37} {
			ticked, counted := NewController(law), NewController(law)
			ticked.SetMode(m)
			counted.SetMode(m)
			const n = 9
			for i := 0; i < n; i++ {
				r := reading(i, i-1)
				if m == Undervolt {
					r = hold(i)
				}
				ticked.VoltageCommand(set, r)
			}
			if m == Undervolt {
				counted.VoltageCommand(set, hold(4))
			} else {
				counted.VoltageCommand(set, reading(3, 3))
			}
			if !counted.RepeatsLastTick() {
				t.Errorf("%v at %v mV: RepeatsLastTick false after %+v", m, set, counted.LastAttribution())
			}
			counted.CountFixedTicks(n - 1)
			if *ticked != *counted {
				t.Errorf("%v at %v mV: %d commands leave %+v, one and CountFixedTicks %+v", m, set, n, *ticked, *counted)
			}
		}
	}

	at := func(set units.Millivolt, r MarginReading) func(c *Controller) {
		return func(c *Controller) { c.VoltageCommand(set, r) }
	}
	target := MarginReading{MinCPM: cpm.CalibTarget, MinStickyCPM: cpm.CalibTarget, MVPerBit: 21, CurrentA: 60}
	dead := target
	dead.AnyDead = true
	for _, tc := range []struct {
		name string
		last func(c *Controller)
		want Attribution
	}{
		{"fresh", func(*Controller) {}, Attribution{}},
		{"boost", at(law.VNom-37, MarginReading{MinCPM: 3, MinStickyCPM: 3, MVPerBit: 12, CurrentA: 60}), Attribution{Decision: DecisionBoost}},
		{"throttle", at(law.VNom-37, reading(2, 1)), Attribution{Decision: DecisionThrottle}},
		{"floor hold", at(law.VNom-120, target), Attribution{Decision: DecisionHold, Bound: BoundFloor}},
		{"ceiling hold", at(law.VNom+10, target), Attribution{Decision: DecisionHold, Bound: BoundCeil}},
		{"fail-safe", at(law.VNom-37, dead), Attribution{Decision: DecisionFailSafe, Bound: BoundDeadCPM}},
	} {
		c := NewController(law)
		c.SetMode(Undervolt)
		tc.last(c)
		if a := c.LastAttribution(); a.Decision != tc.want.Decision || a.Bound != tc.want.Bound {
			t.Fatalf("%s: last tick %v/%v, want %v/%v", tc.name, a.Decision, a.Bound, tc.want.Decision, tc.want.Bound)
		}
		if c.RepeatsLastTick() {
			t.Errorf("%s: RepeatsLastTick true in Undervolt", tc.name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: CountFixedTicks in Undervolt mode did not panic", tc.name)
				}
			}()
			c.CountFixedTicks(1)
		}()
	}
}

var sinkMV units.Millivolt

// BenchmarkVoltageCommand times one firmware tick's decision: the
// Undervolt loop on a live reading that alternates between one bit of
// spare margin and a sticky droop one bit below target (a proportional
// boost and a throttle, neither clamped), and a Static tick, whose
// command ignores the reading.
func BenchmarkVoltageCommand(b *testing.B) {
	law := vf.Default()
	for _, m := range []Mode{Undervolt, Static} {
		b.Run(m.String(), func(b *testing.B) {
			c := NewController(law)
			c.SetMode(m)
			readings := [2]MarginReading{
				{MinCPM: 3, MinStickyCPM: 3, MVPerBit: 12, CurrentA: 60},
				{MinCPM: 5, MinStickyCPM: 1, MVPerBit: 18, CurrentA: 60},
			}
			set := law.VNom - 40
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				sinkMV = c.VoltageCommand(set, readings[i&1])
				i++
			}
		})
	}
}
