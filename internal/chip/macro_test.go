package chip

import (
	"math"
	"strings"
	"testing"

	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/workload"
)

// exactTwin builds two identical chips, one on the macro lane and one
// pinned to the 1 ms reference lane.
func exactTwin(t *testing.T, mode firmware.Mode, threads int) (macro, exact *Chip) {
	t.Helper()
	build := func(isExact bool) *Chip {
		cfg := DefaultConfig("golden", 99)
		cfg.Exact = isExact
		c := MustNew(cfg)
		d := workload.MustGet("raytrace")
		for i := 0; i < threads; i++ {
			c.Place(i%c.Cores(), workload.NewThread(d, 1e12, nil))
		}
		c.SetMode(mode)
		return c
	}
	return build(false), build(true)
}

func relClose(a, b, tolFrac, absFloor float64) bool {
	d := math.Abs(a - b)
	return d <= tolFrac*math.Max(math.Abs(a), math.Abs(b))+absFloor
}

// TestMacroLaneMatchesExact holds the macro lane against the pure 1 ms
// reference across the guardband modes: after the same simulated span the
// two lanes must agree on energy, frequency, voltage, thread progress, and
// droop accounting to well within the 1% accuracy budget.
func TestMacroLaneMatchesExact(t *testing.T) {
	for _, mode := range []firmware.Mode{firmware.Static, firmware.Undervolt, firmware.Overclock} {
		macro, exact := exactTwin(t, mode, 8)
		macro.Settle(3)
		exact.Settle(3)

		if !relClose(macro.EnergyJ(), exact.EnergyJ(), 0.005, 0) {
			t.Errorf("%v: energy diverged: macro %v J, exact %v J", mode, macro.EnergyJ(), exact.EnergyJ())
		}
		if !relClose(float64(macro.ChipPower()), float64(exact.ChipPower()), 0.005, 0) {
			t.Errorf("%v: power diverged: macro %v W, exact %v W", mode, macro.ChipPower(), exact.ChipPower())
		}
		if !relClose(float64(macro.Temperature()), float64(exact.Temperature()), 0.005, 0) {
			t.Errorf("%v: temperature diverged: macro %v, exact %v", mode, macro.Temperature(), exact.Temperature())
		}
		for i := 0; i < macro.Cores(); i++ {
			if !relClose(float64(macro.CoreFreq(i)), float64(exact.CoreFreq(i)), 0.005, 0) {
				t.Errorf("%v: core %d freq diverged: macro %v, exact %v", mode, i, macro.CoreFreq(i), exact.CoreFreq(i))
			}
			if !relClose(float64(macro.CoreVoltageDC(i)), float64(exact.CoreVoltageDC(i)), 0.005, 0) {
				t.Errorf("%v: core %d voltage diverged: macro %v, exact %v", mode, i, macro.CoreVoltageDC(i), exact.CoreVoltageDC(i))
			}
			mr := macro.Core(i).Threads()[0].Retired()
			er := exact.Core(i).Threads()[0].Retired()
			if !relClose(mr, er, 0.005, 0) {
				t.Errorf("%v: core %d retired work diverged: macro %v, exact %v", mode, i, mr, er)
			}
		}
		// The time-indexed event schedule makes droop events identical by
		// construction; allow ±1 for an event landing on a lane's window
		// boundary skew.
		ma, mv := macro.DroopStats()
		ea, ev := exact.DroopStats()
		if abs(ma-ea) > 1 || abs(mv-ev) > 1 {
			t.Errorf("%v: droop stats diverged: macro %d/%d, exact %d/%d", mode, ma, mv, ea, ev)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestMacroLaneActuallyLeaps ensures the speedup mechanism engages: a
// settled chip must cover a window in far fewer Advance segments than the
// 32 micro-steps the reference lane needs.
func TestMacroLaneActuallyLeaps(t *testing.T) {
	macro, _ := exactTwin(t, firmware.Undervolt, 8)
	macro.Settle(1) // converge electrically and thermally
	segments := 0
	remaining := 1.0
	for remaining > settleEps {
		remaining -= macro.Advance(remaining)
		segments++
	}
	// 1 s = 1000 micro-steps; the macro lane should need well under half.
	if segments > 500 {
		t.Errorf("macro lane did not leap: %d segments for 1 s (exact lane: 1000)", segments)
	}
	if macro.Quiescent() == false && macro.ActiveCores() > 0 {
		// Not fatal — just informative if quiescence was never reached.
		t.Logf("note: chip not quiescent at end of run (stable=%d)", macro.stable)
	}
}

// leapGap is one leap of an Advance loop: the horizon that bounded it and
// the micro-steps the chip took after it before leaping again.
type leapGap struct {
	reason obs.Reason
	micro  int
}

// traceLeaps drives c through span seconds of Advance segments. It returns
// a leapGap for every leap that another leap followed, and the total
// micro-step count. A segment longer than the grid step is a leap: Advance
// leaps only past a full micro-step.
func traceLeaps(c *Chip, span float64) (gaps []leapGap, micro int) {
	var last obs.Reason
	leapt := false
	since := 0
	for remaining := span; remaining > settleEps; {
		step := c.MicroStepSec()
		d := c.Advance(remaining)
		remaining -= d
		if d <= step {
			micro++
			since++
			continue
		}
		if leapt {
			gaps = append(gaps, leapGap{last, since})
		}
		last, leapt, since = c.lastHorizonReason, true, 0
	}
	return gaps, micro
}

// TestContractionBoundLeapsEarly pins the contraction branch of the
// quiescence proof on a Fig. 17 chip: after each tick the ripple redraw
// moves the overclock DPLL by 10-150 bands and the relaxation then shrinks
// 10-40x per step, so the geometric tail fits inside one band after the
// first contracting step. Waiting for two in-band steps instead costs
// about 4.9 micro-steps per firmware tick.
func TestContractionBoundLeapsEarly(t *testing.T) {
	c := MustNew(DefaultConfig("fig17-like", 12345))
	c.Place(0, workload.NewThread(workload.MustGet("websearch"), 1e9, nil))
	for i := 1; i < 8; i++ {
		c.Place(i, workload.NewThread(workload.MustGet("coremark"), 1e9, nil))
		c.SetIssueThrottle(i, 0.39)
	}
	c.SetMode(firmware.Overclock)
	c.Settle(2.5)
	ticks0 := c.Controller().Ticks()
	_, micro := traceLeaps(c, 24)
	ticks := c.Controller().Ticks() - ticks0
	perTick := float64(micro) / float64(ticks)
	t.Logf("%d micro-steps over %d firmware ticks: %.2f per tick", micro, ticks, perTick)
	if perTick > 3.4 {
		t.Errorf("%.2f micro-steps per firmware tick, want ≤ 3.4", perTick)
	}
}

// TestMacroStepKeepsProofOnlyAcrossInertHorizons pins which horizons a
// leap may carry the quiescence proof across, on an Undervolt chip whose
// eight raytrace threads run out of work one after another. A di/dt event
// moves no operating point (the DPLL only absorbs the droop), so the chip
// leaps again straight after the event step. A thread completion changes
// the next step's power without moving anything the last step measured,
// so the chip must re-prove quiescence over at least two micro-steps.
func TestMacroStepKeepsProofOnlyAcrossInertHorizons(t *testing.T) {
	c := MustNew(DefaultConfig("staggered", 99))
	d := workload.MustGet("raytrace")
	for i := 0; i < c.Cores(); i++ {
		c.Place(i, workload.NewThread(d, float64(i+1)*2, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(0.5)
	gaps, _ := traceLeaps(c, 4)
	var didt, didtMicro, completions int
	for _, g := range gaps {
		switch g.reason {
		case obs.ReasonDidtEvent:
			didt++
			didtMicro += g.micro
		case obs.ReasonCompletion:
			completions++
			if g.micro < 2 {
				t.Errorf("leap to a thread completion followed by %d micro-steps, want ≥ 2", g.micro)
			}
		}
	}
	if didt == 0 || completions == 0 {
		t.Fatalf("%d di/dt-bounded and %d completion-bounded leaps; the run must have both", didt, completions)
	}
	mean := float64(didtMicro) / float64(didt)
	t.Logf("%d di/dt-bounded leaps followed by %.2f micro-steps each; %d completion-bounded leaps", didt, mean, completions)
	if mean >= 1.5 {
		t.Errorf("di/dt-bounded leaps are followed by %.2f micro-steps on average, want < 1.5", mean)
	}
}

// TestSettleStepsFractionalRemainder is the regression for the old
// int(seconds/DefaultStepSec) truncation, which silently dropped the
// fractional remainder of the span (e.g. half a step of Settle(0.0315)).
func TestSettleStepsFractionalRemainder(t *testing.T) {
	cfg := DefaultConfig("remainder", 3)
	cfg.Exact = true // pure micro lane; remainder handling is lane-independent
	c := MustNew(cfg)
	c.Settle(0.0315)
	if got, want := c.Time(), 0.0315; math.Abs(got-want) > 1e-9 {
		t.Errorf("Settle(0.0315) advanced %v s, want %v (fractional remainder dropped)", got, want)
	}
	c2 := MustNew(cfg)
	c2.Settle(0.1)
	if got, want := c2.Time(), 0.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("Settle(0.1) advanced %v s, want %v", got, want)
	}
}

// TestAdvanceNeverOvershoots pins Advance's contract: each segment stays
// within the caller's bound, so measurement loops cover exact spans.
func TestAdvanceNeverOvershoots(t *testing.T) {
	macro, _ := exactTwin(t, firmware.Undervolt, 8)
	remaining := 2.5
	for remaining > settleEps {
		got := macro.Advance(remaining)
		if got > remaining+settleEps {
			t.Fatalf("Advance(%v) consumed %v", remaining, got)
		}
		remaining -= got
	}
	if math.Abs(macro.Time()-2.5) > 1e-6 {
		t.Errorf("Advance loop covered %v s, want 2.5", macro.Time())
	}
}

// TestMacroStepRefusesTick requires MacroStep to panic as a horizon bug
// before a span that would fire a firmware tick: one that ends short of
// the tick by less than holdSpan's grid snap, as well as one that crosses
// it. A frozen tick inside a leap would read a read model only
// FastForward builds; on this Undervolt chip, whose model was never
// built, it would fail in the firmware on a zero sensitivity instead.
func TestMacroStepRefusesTick(t *testing.T) {
	for _, short := range []float64{gridSnapSec / 2, -DefaultStepSec} {
		c, _ := exactTwin(t, firmware.Undervolt, 4)
		c.Settle(0.1)
		phase := c.sinceTick
		h := firmware.TickSeconds - phase - short
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "reaches the firmware tick (horizon bug)") {
					t.Errorf("MacroStep(%v) from tick phase %v: got panic %q, want a horizon-bug panic for the tick", h, phase, msg)
				}
			}()
			c.MacroStep(h)
		}()
		if c.sinceTick != phase {
			t.Errorf("MacroStep(%v) moved the tick phase from %v to %v before it panicked", h, phase, c.sinceTick)
		}
	}
}
