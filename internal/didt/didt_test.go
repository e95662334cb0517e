package didt

import (
	"math"
	"testing"

	"agsim/internal/rng"
)

func profiles(n int, typ, worst, rate float64) []Profile {
	ps := make([]Profile, n)
	for i := range ps {
		ps[i] = Profile{TypicalMV: typ, WorstMV: worst, RatePerSec: rate}
	}
	return ps
}

func newModel() *Model {
	return New(DefaultParams(), rng.New(7, "didt-test"))
}

func TestIdleChipFloor(t *testing.T) {
	m := newModel()
	s := m.Step(0.001, nil)
	if s.TypicalMV <= 0 || s.TypicalMV > 3 {
		t.Errorf("idle typical = %v, want small positive floor", s.TypicalMV)
	}
	if s.Events != 0 || s.WorstEventMV != 0 {
		t.Errorf("idle chip produced droops: %+v", s)
	}
}

func TestTypicalNoiseSmoothsWithCores(t *testing.T) {
	// Paper §4.3: "typical-case di/dt noise gets smaller when core count
	// scales" due to activity staggering.
	p := DefaultParams()
	one := p.ExpectedTypicalMV(profiles(1, 8, 25, 3))
	eight := p.ExpectedTypicalMV(profiles(8, 8, 25, 3))
	if eight >= one {
		t.Errorf("typical noise did not smooth: 1 core %v, 8 cores %v", one, eight)
	}
	// And the measured samples should agree with the expectation on
	// average.
	m := newModel()
	var sum1, sum8 float64
	const n = 2000
	for i := 0; i < n; i++ {
		sum1 += m.Step(0.001, profiles(1, 8, 25, 3)).TypicalMV
		sum8 += m.Step(0.001, profiles(8, 8, 25, 3)).TypicalMV
	}
	if sum8/n >= sum1/n {
		t.Errorf("sampled typical noise did not smooth: %v vs %v", sum1/n, sum8/n)
	}
}

func TestWorstCaseGrowsWithCores(t *testing.T) {
	// Paper §4.3: "the worst-case di/dt noise increases slightly" with
	// more active cores (alignment).
	p := DefaultParams()
	one := p.ExpectedWorstMV(profiles(1, 8, 25, 3))
	eight := p.ExpectedWorstMV(profiles(8, 8, 25, 3))
	if eight <= one {
		t.Errorf("worst-case noise did not grow: 1 core %v, 8 cores %v", one, eight)
	}
	// Growth is "slight": under 2x from 1 to 8 cores.
	if eight > 2*one {
		t.Errorf("worst-case growth too strong: %v -> %v", one, eight)
	}
}

func TestDroopEventsAreRare(t *testing.T) {
	// Paper: "our droop frequency analysis indicates that such large
	// worst-case droops occur infrequently". At a 3/s per-core rate the
	// chip-level rate must stay within the same order of magnitude.
	m := newModel()
	events := 0
	const steps = 10000 // 10 s at 1 ms
	for i := 0; i < steps; i++ {
		events += m.Step(0.001, profiles(8, 8, 25, 3)).Events
	}
	ratePerSec := float64(events) / 10.0
	if ratePerSec < 1 || ratePerSec > 30 {
		t.Errorf("droop rate = %v/s, want rare but present", ratePerSec)
	}
}

func TestStickyLatchesWorstDroop(t *testing.T) {
	m := newModel()
	// Run until at least one droop happens.
	var deepest float64
	for i := 0; i < 100000 && deepest == 0; i++ {
		s := m.Step(0.001, profiles(8, 8, 25, 3))
		if s.WorstEventMV > deepest {
			deepest = s.WorstEventMV
		}
	}
	if deepest == 0 {
		t.Fatal("no droop occurred in 100 s of simulated time")
	}
	if got := m.WorstSinceReset(); got < deepest {
		t.Errorf("sticky worst %v below observed %v", got, deepest)
	}
	m.StickyReset()
	if got := m.WorstSinceReset(); got != 0 {
		t.Errorf("sticky not cleared: %v", got)
	}
}

func TestDroopDepthBounded(t *testing.T) {
	m := newModel()
	p := DefaultParams()
	expected := p.ExpectedWorstMV(profiles(8, 8, 25, 3))
	for i := 0; i < 50000; i++ {
		s := m.Step(0.001, profiles(8, 8, 25, 3))
		if s.WorstEventMV > expected*1.2+1e-9 {
			t.Fatalf("droop %v exceeds 1.2x characteristic depth %v", s.WorstEventMV, expected)
		}
	}
}

func TestStepPanicsOnBadDt(t *testing.T) {
	m := newModel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Step(0, nil)
}

func TestNewPanicsOnNilRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(DefaultParams(), nil)
}

func TestStepSlicingInvariant(t *testing.T) {
	// The multi-rate stepping engine leaps settled chips across many
	// milliseconds in one Step call. All stochastic state is indexed by
	// simulated time, so slicing an interval into 1 ms steps or crossing it
	// in macro-steps must consume the same draws and fire the same events.
	ps := profiles(8, 8, 25, 3)
	micro := newModel()
	macro := newModel()
	var microEvents, macroEvents int
	var microWorst, macroWorst float64
	for w := 0; w < 40; w++ { // 40 windows of 32 ms
		for i := 0; i < 32; i++ {
			s := micro.Step(0.001, ps)
			microEvents += s.Events
			if s.WorstEventMV > microWorst {
				microWorst = s.WorstEventMV
			}
		}
		// The macro lane crosses each window with leaps bounded by the next
		// scheduled event and the wobble redraw, mirroring Chip.HorizonSec.
		remaining := 0.032
		for remaining > 1e-12 {
			h := remaining
			if te := macro.TimeToNextEvent(ps); te < h {
				h = te * (1 - 1e-9) // stop just short; fire in a micro step
			}
			if tw := macro.TimeToWobbleRefresh(); tw > 0 && tw < h {
				h = tw
			}
			if h < 0.001 {
				h = 0.001
				if h > remaining {
					h = remaining
				}
			}
			s := macro.Step(h, ps)
			macroEvents += s.Events
			if s.WorstEventMV > macroWorst {
				macroWorst = s.WorstEventMV
			}
			remaining -= h
		}
	}
	if microEvents == 0 {
		t.Fatal("no droop events in 1.28 s; cannot compare lanes")
	}
	if microEvents != macroEvents {
		t.Errorf("event counts diverged: micro %d, macro %d", microEvents, macroEvents)
	}
	if microWorst != macroWorst {
		t.Errorf("worst droop diverged: micro %v, macro %v", microWorst, macroWorst)
	}
	if micro.WorstSinceReset() != macro.WorstSinceReset() {
		t.Errorf("sticky state diverged: micro %v, macro %v",
			micro.WorstSinceReset(), macro.WorstSinceReset())
	}
}

func TestTimeToNextEventMatchesStep(t *testing.T) {
	m := newModel()
	ps := profiles(4, 8, 25, 3)
	for i := 0; i < 200; i++ {
		te := m.TimeToNextEvent(ps)
		if te <= 0 {
			t.Fatalf("non-positive time to event: %v", te)
		}
		// Stepping to just short of the event must not fire it; crossing
		// the remaining sliver must.
		if s := m.Step(te*(1-1e-9), ps); s.Events != 0 {
			t.Fatalf("iter %d: event fired before its scheduled time", i)
		}
		if s := m.Step(te*1e-9+1e-12, ps); s.Events == 0 {
			t.Fatalf("iter %d: scheduled event did not fire when crossed", i)
		}
	}
	if m.TimeToNextEvent(nil) != math.Inf(1) {
		t.Error("idle chip must have no scheduled events")
	}
}

func TestHeterogeneousProfilesUseWorstCore(t *testing.T) {
	p := DefaultParams()
	mixed := []Profile{{TypicalMV: 4, WorstMV: 15, RatePerSec: 2}, {TypicalMV: 8, WorstMV: 28, RatePerSec: 5}}
	if got := p.ExpectedWorstMV(mixed); got < 28 {
		t.Errorf("worst-case must be driven by the noisiest core: %v", got)
	}
	if got := p.ExpectedWorstMV(nil); got != 0 {
		t.Errorf("no active cores should have no worst case: %v", got)
	}
}

var sinkSample Sample

// BenchmarkModelStep times one 1 ms noise step of a chip with eight
// active cores: the wobble check, the profile sums and smoothing, and the
// event-schedule exposure, which draws only when a droop fires.
func BenchmarkModelStep(b *testing.B) {
	m := newModel()
	active := profiles(8, 6, 20, 3)
	b.ReportAllocs()
	for b.Loop() {
		sinkSample = m.Step(0.001, active)
	}
}
