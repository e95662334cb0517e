package sample

import (
	"math"
	"testing"
)

// synth is a deterministic scripted target: a signal value per simulated
// time, advanced in fixed detailed steps, with unbounded fast-forwards.
type synth struct {
	time  float64
	step  float64
	value func(t float64) float64
	// hint, when non-nil, bounds fast-forwards the way a real target's
	// completion horizon does.
	hint     func(t, maxSec float64) float64
	ffs      int
	ffSec    float64
	switches []bool
}

func newSynth(value func(t float64) float64) *synth {
	return &synth{step: 0.001, value: value}
}

func (s *synth) Advance(maxSec float64) float64 {
	dt := s.step
	if maxSec < dt {
		dt = maxSec
	}
	s.time += dt
	return dt
}

func (s *synth) SampleHint(maxSec float64) float64 {
	if s.hint != nil {
		return s.hint(s.time, maxSec)
	}
	return maxSec
}

func (s *synth) FastForward(h float64) {
	s.time += h
	s.ffs++
	s.ffSec += h
}

func (s *synth) SampleSignature(buf []float64) []float64 {
	v := s.value(s.time)
	return append(buf, v, v*10, v/2)
}

func (s *synth) EmitSampleMode(toFast bool, _, _ float64) {
	s.switches = append(s.switches, toFast)
}

// blockNoise returns a deterministic pseudo-random value in [-1, 1] that
// changes per blockSec of simulated time — variance the confidence
// tracker sees but the phase detector (at amplitude below its tolerance)
// does not.
func blockNoise(t, blockSec float64) float64 {
	n := uint64(t / blockSec)
	n ^= n << 13
	n ^= n >> 7
	n ^= n << 17
	return float64(n%2048)/1024 - 1
}

func TestGovernorFastForwardsSteadySignal(t *testing.T) {
	s := newSynth(func(float64) float64 { return 100 })
	rs := &RunStats{}
	g := New(s, Config{Stats: rs})
	span := 10.0
	covered := g.Run(span, nil)
	if math.Abs(covered-span) > 1e-6 {
		t.Fatalf("covered %v of %v", covered, span)
	}
	if s.ffs == 0 {
		t.Fatal("steady signal never fast-forwarded")
	}
	if frac := rs.DetailedFraction(); frac > 0.3 {
		t.Errorf("detailed fraction %v on a steady signal, want < 0.3", frac)
	}
	if ci := rs.WorstRelCI(); ci > 0.01 {
		t.Errorf("worst rel CI %v, want <= target 0.01", ci)
	}
	if total, full := rs.Spans(); total != 1 || full != 0 {
		t.Errorf("spans = (%d, %d), want (1, 0)", total, full)
	}
}

func TestGovernorFallsBackOnHighVariance(t *testing.T) {
	// Window means wobble ~20% around 0.02: the relative CI is
	// scale-free, but the phase detector's +1 damping keeps every
	// window-to-window distance on this small signal under its 10%
	// tolerance (at most 0.08/1.16 on the largest element, 10x the
	// value), so the change-point path never fires and only the
	// confidence tracker stands between this signal and extrapolation. At
	// ~11.5% standard deviation the 1% CI needs hundreds of windows — far
	// beyond this span — so the governor must hold detailed stepping the
	// whole way: full simulation is the fallback, not a separate mode.
	s := newSynth(func(tm float64) float64 { return 0.02 * (1 + 0.20*blockNoise(tm, 0.064)) })
	rs := &RunStats{}
	g := New(s, Config{Stats: rs})
	span := 5.0
	covered := g.Run(span, nil)
	if math.Abs(covered-span) > 1e-6 {
		t.Fatalf("covered %v of %v", covered, span)
	}
	if s.ffs != 0 {
		t.Errorf("high-variance signal fast-forwarded %d times, want 0", s.ffs)
	}
	if resets := rs.PhaseResets(); resets != 0 {
		t.Errorf("phase resets = %d on a signal inside the phase tolerance, want 0 (CI path must hold the line)", resets)
	}
	if total, full := rs.Spans(); full != total {
		t.Errorf("%d of %d spans extrapolated, want pure fallback", total-full, total)
	}
	if ci := rs.WorstRelCI(); ci != 0 {
		t.Errorf("worst rel CI %v for a full-simulation run, want 0 (exact)", ci)
	}
	if frac := rs.DetailedFraction(); frac != 1 {
		t.Errorf("detailed fraction %v, want 1", frac)
	}
}

func TestGovernorDetectsPhaseChange(t *testing.T) {
	// Steady at 100 until t=1, then 150: the detector must reset and the
	// governor must re-earn extrapolation in the new phase.
	s := newSynth(func(tm float64) float64 {
		if tm < 1 {
			return 100
		}
		return 150
	})
	rs := &RunStats{}
	g := New(s, Config{Stats: rs})
	g.Run(4, nil)
	if rs.PhaseResets() == 0 {
		t.Error("no phase reset across a 50% signal step")
	}
	if s.ffs == 0 {
		t.Error("never re-converged after the phase change")
	}
	// Extrapolation must resume: some fast-forwarded time lands after the
	// change point (the governor re-earned confidence in the new phase).
	if s.ffSec < 1 {
		t.Errorf("only %v s fast-forwarded over a 4 s span with two long steady phases", s.ffSec)
	}
}

func TestGovernorRunUntil(t *testing.T) {
	s := newSynth(func(float64) float64 { return 100 })
	deadline := 2.5
	// Real targets bound fast-forwards at completion (SampleHint stops one
	// part in 1e9 short); the synthetic hint mirrors that contract.
	s.hint = func(tm, maxSec float64) float64 {
		if left := (deadline - tm) * (1 - 1e-9); left < maxSec {
			return left
		}
		return maxSec
	}
	g := New(s, Config{})
	covered := g.RunUntil(func() bool { return s.time >= deadline }, 100, nil)
	if s.time < deadline-1e-6 {
		t.Fatalf("stopped at %v before done condition %v", s.time, deadline)
	}
	// With the hint stopping short of completion, overshoot is at most the
	// detailed resolution of the finish.
	if s.time > deadline+0.1 {
		t.Errorf("overshot done condition: time %v", s.time)
	}
	if covered <= 0 {
		t.Errorf("covered = %v", covered)
	}
}

func TestGovernorObserveSeesEverySegment(t *testing.T) {
	s := newSynth(func(float64) float64 { return 100 })
	g := New(s, Config{})
	span := 3.0
	sum := 0.0
	g.Run(span, func(dt float64) { sum += dt })
	if math.Abs(sum-span) > 1e-6 {
		t.Errorf("observe saw %v of %v seconds", sum, span)
	}
}

func TestGovernorModeSwitchEventsBalanced(t *testing.T) {
	s := newSynth(func(float64) float64 { return 100 })
	g := New(s, Config{})
	g.Run(5, nil)
	// Directions must alternate starting with a switch to fast-forward and
	// ending balanced (finish closes an open fast span).
	if len(s.switches) == 0 {
		t.Fatal("no mode-switch events on a span that fast-forwarded")
	}
	if !s.switches[0] {
		t.Error("first switch was not into fast-forward")
	}
	for i := 1; i < len(s.switches); i++ {
		if s.switches[i] == s.switches[i-1] {
			t.Fatalf("switch %d repeats direction %v", i, s.switches[i])
		}
	}
	if s.switches[len(s.switches)-1] {
		t.Error("event stream left open: last switch entered fast-forward")
	}
}

func TestNilRunStatsSafe(t *testing.T) {
	var rs *RunStats
	rs.record(0.5, 1, 1)
	rs.phaseChange()
	if rs.WorstRelCI() != 0 || rs.PhaseResets() != 0 || rs.DetailedFraction() != 1 {
		t.Error("nil RunStats returned non-zero aggregates")
	}
	if total, full := rs.Spans(); total != 0 || full != 0 {
		t.Error("nil RunStats returned spans")
	}
}
