package stress

import (
	"math"
	"testing"

	"agsim/internal/chip"
	"agsim/internal/firmware"
)

func TestSynthesizeLevels(t *testing.T) {
	prevWorst, prevRate := 0.0, 0.0
	for _, l := range []Level{Heavy, Virus, Pathological} {
		d := Synthesize(l)
		if err := d.Validate(); err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		if d.DidtWorstMV <= prevWorst || d.DroopRatePerSec <= prevRate {
			t.Errorf("%v not strictly more hostile than previous level", l)
		}
		prevWorst, prevRate = d.DidtWorstMV, d.DroopRatePerSec
	}
}

func TestLevelString(t *testing.T) {
	if Heavy.String() != "heavy" || Virus.String() != "virus" || Pathological.String() != "pathological" {
		t.Error("level names wrong")
	}
	if Level(9).String() == "" {
		t.Error("unknown level should format")
	}
}

func TestSynthesizePanicsOnUnknownLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Synthesize(Level(99))
}

func TestHeavyStressIsAbsorbedInAdaptiveModes(t *testing.T) {
	// The paper's claim: adaptive guardbanding handles di/dt droops via
	// fast DPLL slewing. The realistic worst case must produce zero
	// timing violations in both adaptive modes.
	for _, mode := range []firmware.Mode{firmware.Undervolt, firmware.Overclock} {
		rep := Run(Heavy, mode, 8, 31)
		if !rep.Safe() {
			t.Errorf("%v mode: %d timing violations under Heavy stress", mode, rep.TimingViolations)
		}
		if rep.DroopsAbsorbed == 0 {
			t.Errorf("%v mode: no droops occurred — stressmark inert", mode)
		}
	}
}

func TestVirusStillAbsorbedButCostsUndervolt(t *testing.T) {
	heavy := Run(Heavy, firmware.Undervolt, 8, 37)
	virus := Run(Virus, firmware.Undervolt, 8, 37)
	if !virus.Safe() {
		t.Errorf("virus caused %d timing violations; the guardband should still hold", virus.TimingViolations)
	}
	if virus.DroopsAbsorbed <= heavy.DroopsAbsorbed {
		t.Errorf("virus absorbed %d droops, heavy %d — virus should droop more",
			virus.DroopsAbsorbed, heavy.DroopsAbsorbed)
	}
	if virus.MinMarginMV >= heavy.MinMarginMV {
		t.Errorf("virus min margin %.1f not below heavy %.1f", virus.MinMarginMV, heavy.MinMarginMV)
	}
}

func TestPathologicalStressIsObservable(t *testing.T) {
	// Beyond the guardbanded envelope the model must surface violations
	// rather than silently absorbing impossible droops.
	rep := Run(Pathological, firmware.Undervolt, 8, 41)
	if rep.Safe() {
		t.Error("pathological stress produced no timing violations — DPLL protection is unrealistically strong")
	}
}

func TestStaticModeRidesOutStressOnGuardband(t *testing.T) {
	// With adaptive guardbanding off there is no DPLL reaction; the run
	// must still complete and report no absorbed droops (nothing absorbs
	// them — the static margin soaks them, which the model expresses as
	// zero accounting either way).
	rep := Run(Heavy, firmware.Static, 5, 43)
	if rep.DroopsAbsorbed != 0 || rep.TimingViolations != 0 {
		t.Errorf("static mode should not engage DPLL droop accounting: %+v", rep)
	}
	if rep.MeanUndervoltMV != 0 {
		t.Errorf("static mode undervolted: %v", rep.MeanUndervoltMV)
	}
}

func TestUndervoltShallowerUnderStress(t *testing.T) {
	// A noisier workload leaves the firmware less room: the virus run must
	// hold a shallower undervolt than an ordinary heavy compute load.
	heavy := Run(Heavy, firmware.Undervolt, 5, 47)
	virus := Run(Virus, firmware.Undervolt, 5, 47)
	if virus.MeanUndervoltMV > heavy.MeanUndervoltMV+1 {
		t.Errorf("virus undervolt %.1f deeper than heavy %.1f", virus.MeanUndervoltMV, heavy.MeanUndervoltMV)
	}
}

// TestRunRoundsToWholeSteps holds Run to the rounded 1 ms step count: a
// span shorter than half a step plays none and reports a zero mean rather
// than NaN, and a longer one reports the span it played.
func TestRunRoundsToWholeSteps(t *testing.T) {
	empty := Run(Heavy, firmware.Undervolt, 0.0004, 53)
	if empty.Seconds != 0 || empty.MeanUndervoltMV != 0 {
		t.Errorf("sub-step run = %+v, want zero span and mean undervolt", empty)
	}
	one := Run(Heavy, firmware.Undervolt, 0.0007, 53)
	if one.Seconds != chip.DefaultStepSec {
		t.Errorf("Run(0.0007) played %v s, want one step", one.Seconds)
	}
	if math.IsNaN(one.MeanUndervoltMV) || math.IsNaN(one.MinMarginMV) || one.MeanUndervoltMV <= 0 {
		t.Errorf("one-step run = %+v, want a finite positive undervolt", one)
	}
}
