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
	time, sinceTick, energy, worstDidt, latch, rail uint64
	temps                                           [9]uint64
	ticks, violations                               int
	attrib                                          firmware.Attribution
	frozenStream                                    string
}

func heldStateOf(c *Chip) heldState {
	s := heldState{
		time:       math.Float64bits(c.timeSec),
		sinceTick:  math.Float64bits(c.sinceTick),
		energy:     math.Float64bits(c.energyJ),
		worstDidt:  math.Float64bits(c.lastWindowWorstDidt),
		latch:      math.Float64bits(c.noise.WorstSinceReset()),
		rail:       math.Float64bits(float64(c.rail.SetPoint())),
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
// recorder makes every frozen tick run in full, and a tick the controller
// repeats changes no chip state it does not also change per tick, so a
// recorded and an unrecorded twin must leave each fast-forward, and the
// detailed steps after it, bit for bit alike. The cases cover the fixed
// modes; a chip that violates its margin; a converged Undervolt chip,
// whose holds batch; an aged Undervolt chip pinned at the nominal ceiling,
// where a hold run lasts a tick or two before a throttle the ceiling
// clamps; a
// noisy Undervolt chip whose reads straddle the thresholds around the
// calibration target, so hold runs end at draws that move the rail; and
// the dead-sensor and fully gated chips, on which frozenTick draws nothing
// and Undervolt fails safe. The spans are long, one full segment past a
// tick, and off the tick grid.
func TestDecidedTicksMatchRecordedTicks(t *testing.T) {
	spans := []float64{9, 0.0645, 0.032, 1.0171, 0.5}
	for _, tc := range []struct {
		name string
		// noiseMV, when set, replaces the CPMs' read noise.
		noiseMV float64
		prep    func(c *Chip)
		// moves requires rail commands from ticks after a span's first.
		moves bool
	}{
		{name: "static", prep: func(c *Chip) { placeN(c, "raytrace", 8); c.SetMode(firmware.Static) }},
		{name: "overclock", prep: func(c *Chip) { placeN(c, "raytrace", 3); c.SetMode(firmware.Overclock) }},
		{name: "manual", prep: func(c *Chip) { placeN(c, "lu_ncb", 4); c.SetManual(1150, 3900) }},
		{name: "aged static", prep: func(c *Chip) { placeN(c, "raytrace", 2); c.AgeBy(130); c.SetMode(firmware.Static) }},
		{name: "undervolt", prep: func(c *Chip) { placeN(c, "raytrace", 8); c.SetMode(firmware.Undervolt) }},
		{name: "aged undervolt", prep: func(c *Chip) { placeN(c, "raytrace", 2); c.AgeBy(130); c.SetMode(firmware.Undervolt) }},
		{name: "noisy undervolt", noiseMV: 8, moves: true, prep: func(c *Chip) {
			placeN(c, "raytrace", 4)
			c.SetMode(firmware.Undervolt)
		}},
		{name: "dead-sensor overclock", prep: func(c *Chip) {
			placeN(c, "raytrace", 8)
			c.KillCPM(2, 4)
			c.SetMode(firmware.Overclock)
		}},
		{name: "dead-sensor undervolt", prep: func(c *Chip) {
			placeN(c, "raytrace", 8)
			c.KillCPM(2, 4)
			c.SetMode(firmware.Undervolt)
		}},
		{name: "gated static", prep: func(c *Chip) { gateAll(c); c.SetMode(firmware.Static) }},
		{name: "gated undervolt", prep: func(c *Chip) { gateAll(c); c.SetMode(firmware.Undervolt) }},
	} {
		var twins [2]*Chip
		rec := obs.New("twin", 0)
		for i := range twins {
			cfg := DefaultConfig("twin", 31)
			if tc.noiseMV > 0 {
				cfg.CPM.NoiseMV = tc.noiseMV
			}
			if i == 1 {
				cfg.Recorder = rec
			}
			twins[i] = MustNew(cfg)
			tc.prep(twins[i])
			twins[i].Settle(1)
		}
		plain, recorded := twins[0], twins[1]
		var moves uint64
		for _, h := range spans {
			if hint := plain.SampleHint(h); hint < h {
				t.Fatalf("%s: sample hint %v s is shorter than the %v s span", tc.name, hint, h)
			}
			ticks := plain.ctrl.Ticks()
			before := railCommands(rec)
			plain.FastForward(h)
			recorded.FastForward(h)
			moves += railCommands(rec) - before
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
		// Each span's first tick makes at most one rail command, so more
		// than one per span shows later ticks moved the rail: hold runs in
		// the batched twin ended at draws handed to frozenTick.
		if tc.moves && moves <= uint64(len(spans)) {
			t.Errorf("%s: %d rail commands in %d fast-forwards; the hold runs did not end in moves", tc.name, moves, len(spans))
		}
	}
}

// gateAll power-gates every core of c.
func gateAll(c *Chip) {
	for i := 0; i < c.Cores(); i++ {
		c.SetCoreState(i, power.Gated)
	}
}

// railCommands reads the recorder's rail_commands counter.
func railCommands(rec *obs.Recorder) uint64 {
	lg := rec.Snapshot()
	return lg.TotalCounter(obs.CRailCommands)
}
