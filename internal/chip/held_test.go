package chip

import (
	"testing"

	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/sample"
)

// agedStatic returns a Static chip worn past its guardband, so every
// clocked core violates timing margin on every step.
func agedStatic(name string, rec *obs.Recorder) *Chip {
	cfg := DefaultConfig(name, 107)
	cfg.Recorder = rec
	c := MustNew(cfg)
	placeN(c, "raytrace", 2)
	c.AgeBy(130)
	c.SetMode(firmware.Static)
	return c
}

// TestRecorderCountsHeldSpanViolations holds the recorder's
// margin_violations counter to the chip's own count on the two lanes that
// cross time in held spans: macro leaps and sampled fast-forwards count a
// span's violations per micro-step, and the recorder must see every one.
func TestRecorderCountsHeldSpanViolations(t *testing.T) {
	for _, lane := range []struct {
		name  string
		held  obs.CounterID
		cross func(c *Chip)
	}{
		{"macro", obs.CMacroSteps, func(c *Chip) { c.Settle(2) }},
		{"sampled", obs.CFastForwards, func(c *Chip) { sample.New(c, sample.Config{}).Run(20, nil) }},
	} {
		rec := obs.New(lane.name, 0)
		c := agedStatic("p0", rec)
		lane.cross(c)
		lg := rec.Snapshot()
		if lg.TotalCounter(lane.held) == 0 {
			t.Fatalf("%s: no held spans; the lane was not exercised", lane.name)
		}
		got, want := lg.TotalCounter(obs.CMarginViolations), uint64(c.MarginViolations())
		if want == 0 {
			t.Fatalf("%s: the worn Static chip never violated its margin", lane.name)
		}
		if got != want {
			t.Errorf("%s: recorder counted %d margin violations, chip counted %d", lane.name, got, want)
		}
	}
}

// TestMacroStepMatchesFastForward runs one held span both ways on twin
// chips: a span inside one firmware tick with no di/dt event in it is the
// same physics whether the macro lane leaps it or the sampled lane
// fast-forwards it, so the two must agree bit for bit.
func TestMacroStepMatchesFastForward(t *testing.T) {
	leap, ff := agedStatic("twin", nil), agedStatic("twin", nil)
	leap.Settle(1)
	ff.Settle(1)
	h := leap.HorizonSec(firmware.TickSeconds)
	if steps := int(h/DefaultStepSec + 0.5); steps < 2 {
		t.Fatalf("horizon %v s spans %d micro-steps; want a multi-step span", h, steps)
	}
	before := leap.MarginViolations()
	leap.MacroStep(h)
	ff.FastForward(h)

	if leap.MarginViolations() == before {
		t.Fatal("no margin violation inside the span; the accounting is not exercised")
	}
	if leap.Controller().Ticks() != ff.Controller().Ticks() {
		t.Fatalf("fast-forward fired %d ticks, leap %d; the span must stay inside one tick",
			ff.Controller().Ticks(), leap.Controller().Ticks())
	}
	for _, q := range []struct {
		name   string
		lv, fv float64
	}{
		{"energy", leap.EnergyJ(), ff.EnergyJ()},
		{"package temperature", float64(leap.Temperature()), float64(ff.Temperature())},
		{"clock", leap.Time(), ff.Time()},
		{"tick phase", leap.sinceTick, ff.sinceTick},
		{"margin violations", float64(leap.MarginViolations()), float64(ff.MarginViolations())},
	} {
		if q.lv != q.fv {
			t.Errorf("%s: leap %v, fast-forward %v", q.name, q.lv, q.fv)
		}
	}
	for i := 0; i < leap.Cores(); i++ {
		if lt, ft := leap.CoreTemperature(i), ff.CoreTemperature(i); lt != ft {
			t.Errorf("core %d temperature: leap %v, fast-forward %v", i, lt, ft)
		}
		lth, fth := leap.Core(i).Threads(), ff.Core(i).Threads()
		for j := range lth {
			if lr, fr := lth[j].Retired(), fth[j].Retired(); lr != fr {
				t.Errorf("core %d thread %d retired: leap %v, fast-forward %v GInst", i, j, lr, fr)
			}
		}
	}
}
