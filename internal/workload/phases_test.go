package workload

import (
	"math"
	"testing"

	"agsim/internal/units"
)

func TestPhaseScheduleValidate(t *testing.T) {
	if err := (PhaseSchedule{}).Validate(); err != nil {
		t.Errorf("empty schedule should be valid: %v", err)
	}
	bad := []PhaseSchedule{
		{{DurationSec: 0, ActivityScale: 1, MemScale: 1}},
		{{DurationSec: 1, ActivityScale: 0, MemScale: 1}},
		{{DurationSec: 1, ActivityScale: 1, MemScale: -1}},
	}
	for i, ps := range bad {
		if err := ps.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestPhaseScheduleAt(t *testing.T) {
	ps := PhaseSchedule{
		{DurationSec: 2, ActivityScale: 1.1, MemScale: 0.5},
		{DurationSec: 1, ActivityScale: 0.6, MemScale: 3},
	}
	if _, ok := (PhaseSchedule{}).At(1); ok {
		t.Error("empty schedule should report no phase")
	}
	for _, tc := range []struct {
		t    float64
		want float64 // expected activity scale
	}{
		{0, 1.1}, {1.9, 1.1}, {2.0, 0.6}, {2.9, 0.6},
		{3.0, 1.1},  // wrapped
		{5.5, 0.6},  // second cycle, exchange phase
		{60.1, 1.1}, // deep into cycling
	} {
		p, ok := ps.At(tc.t)
		if !ok || p.ActivityScale != tc.want {
			t.Errorf("At(%v) = %+v, want activity %v", tc.t, p, tc.want)
		}
	}
	if got := ps.PeriodSec(); got != 3 {
		t.Errorf("PeriodSec = %v", got)
	}
}

func TestThreadPhasesModulateActivityAndThroughput(t *testing.T) {
	d := MustGet("ocean_cp")
	th := NewThread(d, 1e9, nil)
	th.SetPhases(ComputeExchangeSchedule(0.5, 0.5))

	// Compute phase (t in [0, 0.5)): higher activity, less memory stall.
	r1, _ := th.Step(0.4, 4200, 1, 1)
	actCompute := th.ActivityNow()

	// Exchange phase (t in [0.5, 1)): lower activity, more memory stall.
	r2, _ := th.Step(0.4, 4200, 1, 1)
	actExchange := th.ActivityNow()

	if actExchange >= actCompute {
		t.Errorf("exchange activity %v not below compute %v", actExchange, actCompute)
	}
	// Equal wall time, but the memory-dense phase retires less work.
	if r2 >= r1 {
		t.Errorf("exchange retired %v GInst, compute %v — exchange should be slower", r2, r1)
	}
}

func TestThreadPhasesPreserveTotalWork(t *testing.T) {
	d := MustGet("swaptions")
	th := NewThread(d, 2.0, nil)
	th.SetPhases(ComputeExchangeSchedule(0.1, 0.1))
	total := 0.0
	for i := 0; i < 1_000_000 && !th.Done(); i++ {
		r, _ := th.Step(0.001, 4200, 1, 1)
		total += r
	}
	if !th.Done() || math.Abs(total-2.0) > 1e-9 {
		t.Errorf("retired %v GInst, want 2.0", total)
	}
}

func TestSetPhasesPanicsOnInvalid(t *testing.T) {
	th := NewThread(MustGet("swaptions"), 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	th.SetPhases(PhaseSchedule{{DurationSec: -1, ActivityScale: 1, MemScale: 1}})
}

func TestSteadyThreadUnaffectedByPhaseMachinery(t *testing.T) {
	d := MustGet("coremark")
	plain := NewThread(d, 100, nil)
	phased := NewThread(d, 100, nil)
	phased.SetPhases(nil)
	r1, _ := plain.Step(0.5, 4200, 1, 1)
	r2, _ := phased.Step(0.5, 4200, 1, 1)
	if r1 != r2 {
		t.Errorf("nil schedule changed behaviour: %v vs %v", r1, r2)
	}
}

// TestThreadStepPhaseMemScaleExact pins Step's retired work under a
// phase that scales the memory-stall time to the same computation on a
// scaled copy of the descriptor: MemNsPerInst multiplied by the phase's
// scale, then MIPSPerThread, bit for bit.
func TestThreadStepPhaseMemScaleExact(t *testing.T) {
	d := MustGet("ocean_cp")
	sched := ComputeExchangeSchedule(0.01, 0.01)
	th := NewThread(d, 1e9, nil)
	th.SetPhases(sched)
	const dt = 0.001
	elapsed := 0.0
	seen := map[float64]bool{}
	for i := 0; i < 60; i++ {
		f := units.Megahertz(3000 + 30*i)
		memFactor := 1 + 0.05*float64(i%4)
		smt := float64(1 + i%4)
		elapsed += dt // Step advances the phase clock before it reads the scale
		ph, _ := sched.At(elapsed)
		scaled := d
		scaled.MemNsPerInst *= ph.MemScale
		want := float64(scaled.MIPSPerThread(f, memFactor, smt)) * dt / 1000
		if got, _ := th.Step(dt, f, memFactor, smt); got != want {
			t.Fatalf("step %d (mem scale %v): retired %v GInst, copy-then-scale gives %v", i, ph.MemScale, got, want)
		}
		seen[ph.MemScale] = true
	}
	if !seen[0.4] || !seen[3.0] {
		t.Fatalf("schedule exercised memory scales %v, want both 0.4 and 3.0", seen)
	}
}
