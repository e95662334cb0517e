package chip

import (
	"math"
	"testing"

	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/power"
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

// heldState is what a fast-forward's frozen ticks leave behind, as bits.
type heldState struct {
	time, sinceTick, energy, worstDidt, latch uint64
	temps                                     [9]uint64
	ticks, violations                         int
	attrib                                    firmware.Attribution
	frozenStream                              string
}

func heldStateOf(c *Chip) heldState {
	s := heldState{
		time:       math.Float64bits(c.timeSec),
		sinceTick:  math.Float64bits(c.sinceTick),
		energy:     math.Float64bits(c.energyJ),
		worstDidt:  math.Float64bits(c.lastWindowWorstDidt),
		latch:      math.Float64bits(c.noise.WorstSinceReset()),
		ticks:      c.ctrl.Ticks(),
		violations: c.marginViolations,
		attrib:     c.ctrl.LastAttribution(),
	}
	s.temps[0] = math.Float64bits(float64(c.tempC))
	for i, co := range c.cores {
		s.temps[i+1] = math.Float64bits(float64(co.tempC))
	}
	b, err := c.frozenRNG.AppendBinary(nil)
	if err != nil {
		panic(err)
	}
	s.frozenStream = string(b)
	return s
}

// TestDecidedTicksMatchRecordedTicks checks the batch of decided frozen
// ticks (holdDecidedTicks) against the per-tick path on twin chips. A
// recorder makes every frozen tick run in full, and in a mode whose
// command ignores the reading it changes no chip state, so a recorded
// and an unrecorded twin must leave each fast-forward, and the detailed
// steps after it, bit for bit alike. The cases cover the fixed modes, a
// chip that violates its margin, and the dead-sensor and fully gated chips
// on which frozenTick draws nothing; the spans are long, one full segment
// past a tick, and off the tick grid.
func TestDecidedTicksMatchRecordedTicks(t *testing.T) {
	for _, tc := range []struct {
		name string
		prep func(c *Chip)
	}{
		{"static", func(c *Chip) { placeN(c, "raytrace", 8); c.SetMode(firmware.Static) }},
		{"overclock", func(c *Chip) { placeN(c, "raytrace", 3); c.SetMode(firmware.Overclock) }},
		{"manual", func(c *Chip) { placeN(c, "lu_ncb", 4); c.SetManual(1150, 3900) }},
		{"aged static", func(c *Chip) { placeN(c, "raytrace", 2); c.AgeBy(130); c.SetMode(firmware.Static) }},
		{"dead-sensor overclock", func(c *Chip) {
			placeN(c, "raytrace", 8)
			c.KillCPM(2, 4)
			c.SetMode(firmware.Overclock)
		}},
		{"gated static", func(c *Chip) {
			for i := 0; i < c.Cores(); i++ {
				c.SetCoreState(i, power.Gated)
			}
			c.SetMode(firmware.Static)
		}},
	} {
		var twins [2]*Chip
		for i := range twins {
			cfg := DefaultConfig("twin", 31)
			if i == 1 {
				cfg.Recorder = obs.New("twin", 0)
			}
			twins[i] = MustNew(cfg)
			tc.prep(twins[i])
			twins[i].Settle(1)
		}
		plain, recorded := twins[0], twins[1]
		for _, h := range []float64{9, 0.0645, 0.032, 1.0171, 0.5} {
			if hint := plain.SampleHint(h); hint < h {
				t.Fatalf("%s: sample hint %v s is shorter than the %v s span", tc.name, hint, h)
			}
			ticks := plain.ctrl.Ticks()
			plain.FastForward(h)
			recorded.FastForward(h)
			if plain.ctrl.Ticks() == ticks && h > 2*firmware.TickSeconds {
				t.Fatalf("%s: a %v s fast-forward fired no tick", tc.name, h)
			}
			if p, r := heldStateOf(plain), heldStateOf(recorded); p != r {
				t.Fatalf("%s: after a %v s fast-forward\nbatched:  %+v\nper tick: %+v", tc.name, h, p, r)
			}
			plain.Settle(0.2)
			recorded.Settle(0.2)
			if p, r := heldStateOf(plain), heldStateOf(recorded); p != r {
				t.Fatalf("%s: 0.2 s after a %v s fast-forward\nbatched:  %+v\nper tick: %+v", tc.name, h, p, r)
			}
		}
	}
}
