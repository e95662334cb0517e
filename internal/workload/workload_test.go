package workload

import (
	"math"
	"testing"
	"unsafe"

	"agsim/internal/units"
)

func TestRegistryValid(t *testing.T) {
	for _, d := range All() {
		if err := d.Validate(); err != nil {
			t.Errorf("registry entry invalid: %v", err)
		}
	}
}

func TestRegistryCounts(t *testing.T) {
	if n := len(BySuite(PARSEC)); n != 7 {
		t.Errorf("PARSEC count = %d, want 7", n)
	}
	if n := len(BySuite(SPLASH2)); n != 10 {
		t.Errorf("SPLASH-2 count = %d, want 10", n)
	}
	// Paper §3.1: 17 controllable multithreaded workloads.
	if n := len(Multithreaded()); n != 17 {
		t.Errorf("Multithreaded count = %d, want 17", n)
	}
	if n := len(BySuite(SPECCPU)); n < 25 {
		t.Errorf("SPEC count = %d, want >= 25", n)
	}
	if n := len(Fig14Workloads()); n != 42 {
		t.Errorf("Fig14 count = %d, want 42", n)
	}
	if n := len(Fig9Workloads()); n != 10 {
		t.Errorf("Fig9 count = %d, want 10", n)
	}
}

func TestGet(t *testing.T) {
	if _, err := Get("raytrace"); err != nil {
		t.Error(err)
	}
	if _, err := Get("doom"); err == nil {
		t.Error("expected error for unknown workload")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustGet("doom")
}

func TestNamesSortedUnique(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted/unique at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
}

func TestMIPSIncreasesWithFrequencyForComputeBound(t *testing.T) {
	d := MustGet("swaptions")
	lo := d.MIPSPerThread(4200, 1, 1)
	hi := d.MIPSPerThread(4620, 1, 1)
	gain := float64(hi)/float64(lo) - 1
	// Near compute-bound: a 10% frequency boost should give nearly 10%
	// throughput.
	if gain < 0.08 || gain > 0.101 {
		t.Errorf("swaptions MIPS gain for 10%% overclock = %.3f", gain)
	}
}

func TestMemoryBoundInsensitiveToFrequency(t *testing.T) {
	d := MustGet("mcf")
	lo := d.MIPSPerThread(4200, 1, 1)
	hi := d.MIPSPerThread(4620, 1, 1)
	gain := float64(hi)/float64(lo) - 1
	if gain > 0.06 {
		t.Errorf("mcf MIPS gain = %.3f, want small (memory bound)", gain)
	}
}

func TestUtilizationAndMemBound(t *testing.T) {
	for _, d := range All() {
		u := d.Utilization(4200, 1, 1)
		if u <= 0 || u > 1 {
			t.Errorf("%s: utilization %v out of (0,1]", d.Name, u)
		}
		mb := d.MemBoundFraction(4200)
		if math.Abs(u+mb-1) > 1e-9 {
			t.Errorf("%s: utilization %v + membound %v != 1", d.Name, u, mb)
		}
	}
	mcf, coremark := MustGet("mcf"), MustGet("coremark")
	if mcf.MemBoundFraction(4200) < 0.4 {
		t.Error("mcf should be strongly memory bound")
	}
	if coremark.MemBoundFraction(4200) > 0.02 {
		t.Error("coremark should be core-contained")
	}
}

func TestMemFactorSlowsExecution(t *testing.T) {
	d := MustGet("radix")
	uncontended := d.TimeNsPerInst(4200, 1, 1)
	contended := d.TimeNsPerInst(4200, 2, 1)
	if contended <= uncontended {
		t.Error("memory contention should slow execution")
	}
	// memFactor below 1 is clamped to 1.
	if got := d.TimeNsPerInst(4200, 0.5, 1); got != uncontended {
		t.Errorf("memFactor clamp failed: %v vs %v", got, uncontended)
	}
}

func TestSMTSharing(t *testing.T) {
	d := MustGet("lu_cb")
	one := float64(d.MIPSPerThread(4200, 1, 1))
	four := float64(d.MIPSPerThread(4200, 1, 4))
	if four >= one {
		t.Error("per-thread MIPS should drop under SMT sharing")
	}
	// But total core throughput should rise.
	if 4*four <= one {
		t.Error("total SMT throughput should exceed single-thread")
	}
	// Beyond 4 threads the POWER7+ has no more SMT slots; per-thread share
	// keeps dividing.
	eight := float64(d.MIPSPerThread(4200, 1, 8))
	if eight >= four {
		t.Error("per-thread MIPS should keep dropping past 4 threads")
	}
}

func TestParallelEfficiency(t *testing.T) {
	d := MustGet("raytrace")
	if e := d.ParallelEfficiency(1); e != 1 {
		t.Errorf("efficiency(1) = %v", e)
	}
	prev := 1.0
	for n := 2; n <= 8; n++ {
		e := d.ParallelEfficiency(n)
		if e >= prev || e <= 0 {
			t.Errorf("efficiency(%d) = %v not decreasing in (0,1)", n, e)
		}
		prev = e
	}
	if s := d.SpeedupAt(8); s <= 1 || s > 8 {
		t.Errorf("speedup(8) = %v", s)
	}
	// SPECrate copies scale perfectly.
	mcf := MustGet("mcf")
	if e := mcf.ParallelEfficiency(8); e != 1 {
		t.Errorf("SPECrate efficiency = %v, want 1", e)
	}
}

func TestCalibrationOrdering(t *testing.T) {
	// The registry must preserve the qualitative per-workload facts the
	// paper depends on.
	powerAt := func(name string) float64 {
		d := MustGet(name)
		return d.Activity * d.Utilization(4200, 1, 1)
	}
	if powerAt("lu_cb") <= powerAt("radix") {
		t.Error("lu_cb must be more power-intense than radix")
	}
	if powerAt("swaptions") <= powerAt("ocean_cp") {
		t.Error("swaptions must be more power-intense than ocean_cp")
	}
	if MustGet("lu_ncb").Sharing < 0.8 || MustGet("radiosity").Sharing < 0.8 {
		t.Error("lu_ncb and radiosity must be sharing-heavy (Fig. 14)")
	}
	for _, name := range []string{"radix", "zeusmp", "lbm", "fft", "GemsFDTD"} {
		if MustGet(name).BytesPerInst < 2 {
			t.Errorf("%s must be bandwidth-heavy (Fig. 14 right edge)", name)
		}
	}
	mcfD, cmD := MustGet("mcf"), MustGet("coremark")
	mcf := mcfD.MIPSPerThread(4200, 1, 1)
	cm := cmD.MIPSPerThread(4200, 1, 1)
	if float64(cm) < 4*float64(mcf) {
		t.Error("coremark MIPS must far exceed mcf (Fig. 15)")
	}
}

func TestThreadRunToCompletion(t *testing.T) {
	d := MustGet("swaptions")
	th := NewThread(d, 1.0, nil) // 1 GInst
	var total float64
	steps := 0
	for !th.Done() {
		retired, done := th.Step(0.001, 4200, 1, 1)
		total += retired
		steps++
		if done && !th.Done() {
			t.Fatal("done flag disagrees with Done()")
		}
		if steps > 1_000_000 {
			t.Fatal("thread did not finish")
		}
	}
	if math.Abs(total-1.0) > 1e-9 {
		t.Errorf("retired %v GInst, want 1.0", total)
	}
	if th.Retired() != total {
		t.Errorf("Retired() = %v, want %v", th.Retired(), total)
	}
	if r, done := th.Step(0.001, 4200, 1, 1); r != 0 || !done {
		t.Error("finished thread should retire nothing")
	}
}

func TestThreadStepDurationMatchesMIPS(t *testing.T) {
	d := MustGet("coremark")
	th := NewThread(d, 100, nil)
	retired, _ := th.Step(1.0, 4200, 1, 1) // one second
	wantGInst := float64(d.MIPSPerThread(4200, 1, 1)) / 1000
	if math.Abs(retired-wantGInst) > 1e-9 {
		t.Errorf("retired %v GInst in 1s, want %v", retired, wantGInst)
	}
}

func TestActivityPhaseBounded(t *testing.T) {
	d := MustGet("raytrace")
	th := NewThread(d, 1e9, newTestRand())
	for i := 0; i < 10000; i++ {
		th.Step(0.001, 4200, 1, 1)
		a := th.ActivityNow()
		lo := d.Activity * (1 - phaseSwing)
		hi := math.Min(1, d.Activity*(1+phaseSwing))
		if a < lo-1e-9 || a > hi+1e-9 {
			t.Fatalf("activity %v escaped [%v, %v]", a, lo, hi)
		}
	}
}

func TestSplitWork(t *testing.T) {
	d := MustGet("raytrace")
	if w := SplitWork(d, 1); w != d.WorkGInst {
		t.Errorf("SplitWork(1) = %v", w)
	}
	w8 := SplitWork(d, 8)
	// Imperfect scaling: more than work/8 per thread.
	if w8 <= d.WorkGInst/8 {
		t.Errorf("SplitWork(8) = %v, want > %v", w8, d.WorkGInst/8)
	}
	if w8 >= d.WorkGInst {
		t.Errorf("SplitWork(8) = %v, should still beat serial", w8)
	}
}

func TestSplitWorkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SplitWork(MustGet("raytrace"), 0)
}

// TestThreadRefusesNaNWork: a NaN budget passes a `<= 0` check and never
// retires, so every way of setting a thread's work refuses it as it
// refuses work that is not positive: NewThread, Reinit and Reset panic,
// and AddWork panics on NaN as on negative work.
func TestThreadRefusesNaNWork(t *testing.T) {
	d := MustGet("raytrace")
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"NewThread", func() { NewThread(d, nan, nil) }},
		{"Reinit", func() { new(Thread).Reinit(d, nan, nil, "t") }},
		{"Reset", func() { NewThread(d, 1, nil).Reset(nan) }},
		{"AddWork", func() { NewThread(d, 1, nil).AddWork(nan) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted NaN work", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

func TestSuiteString(t *testing.T) {
	if PARSEC.String() != "PARSEC" || SPLASH2.String() != "SPLASH-2" {
		t.Error("suite names wrong")
	}
	if Suite(99).String() == "" {
		t.Error("unknown suite should still format")
	}
}

func TestTimeNsPerInstPanicsOnBadFreq(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := MustGet("raytrace")
	d.TimeNsPerInst(units.Megahertz(0), 1, 1)
}

// TestThreadPhasesPreserveTotalWork: a phase-walking thread stepped at
// 1 ms retires exactly its work budget; the walk moves activity, not the
// work count.
func TestThreadPhasesPreserveTotalWork(t *testing.T) {
	th := NewThread(MustGet("swaptions"), 2.0, newTestRand())
	total := 0.0
	for i := 0; i < 1_000_000 && !th.Done(); i++ {
		r, _ := th.Step(0.001, 4200, 1, 1)
		total += r
	}
	if !th.Done() || math.Abs(total-2.0) > 1e-9 {
		t.Errorf("retired %v GInst, want 2.0", total)
	}
}

// TestSteadyThreadUnaffectedByPhaseMachinery: the phase walk scales a
// thread's activity only. A walking thread and a walk-free one retire the
// same work step for step at every frequency, memory factor and SMT
// count, and TimeToCompletion reads the descriptor's rate.
func TestSteadyThreadUnaffectedByPhaseMachinery(t *testing.T) {
	d := MustGet("ocean_cp")
	steady := NewThread(d, 1e9, nil)
	walking := NewThread(d, 1e9, newTestRand())
	const dt = 0.001
	for i := 0; i < 200; i++ {
		f := units.Megahertz(3000 + 30*(i%60))
		memFactor := 1 + 0.05*float64(i%4)
		smt := float64(1 + i%4)
		rate := float64(d.MIPSPerThread(f, memFactor, smt))
		if got, want := walking.TimeToCompletion(f, memFactor, smt), walking.Remaining()*1000/rate; got != want {
			t.Fatalf("step %d: TimeToCompletion %v, descriptor rate gives %v", i, got, want)
		}
		r1, _ := steady.Step(dt, f, memFactor, smt)
		r2, _ := walking.Step(dt, f, memFactor, smt)
		if r1 != r2 {
			t.Fatalf("step %d: steady retired %v GInst, walking %v", i, r1, r2)
		}
	}
	if walking.ActivityNow() == steady.ActivityNow() {
		t.Error("200 ms of phase walk left the activity at the descriptor mean")
	}
}

// TestThreadStepPhaseMemScaleExact pins Step's retired work in every
// phase of the walk to the descriptor's own rate: the walk leaves the
// memory-stall time unscaled, so a step retires MIPSPerThread × dt, bit
// for bit, whatever the phase multiplier.
func TestThreadStepPhaseMemScaleExact(t *testing.T) {
	d := MustGet("ocean_cp")
	th := NewThread(d, 1e9, newTestRand())
	const dt = 0.001
	seen := map[float64]bool{}
	for i := 0; i < 600; i++ {
		f := units.Megahertz(3000 + 30*(i%60))
		memFactor := 1 + 0.05*float64(i%4)
		smt := float64(1 + i%4)
		want := float64(d.MIPSPerThread(f, memFactor, smt)) * dt / 1000
		if got, _ := th.Step(dt, f, memFactor, smt); got != want {
			t.Fatalf("step %d (phase multiplier %v): retired %v GInst, descriptor rate gives %v", i, th.phaseMul, got, want)
		}
		seen[th.phaseMul] = true
	}
	if len(seen) < 10 {
		t.Fatalf("600 ms of phase walk visited %d phase multipliers, want at least 10", len(seen))
	}
}

// TestThreadSizeClass keeps Thread inside its 144-byte allocation size
// class: every placed job allocates one per thread, so growing it into
// the next class (160 bytes) would raise the heap of every run that
// places threads, with no change in behaviour.
func TestThreadSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Thread{}); size > 144 {
		t.Errorf("workload.Thread is %d bytes, past the 144-byte size class", size)
	}
}

var sinkRetired float64

// BenchmarkThreadStep times one thread's 1 ms step at chip conditions: a
// phase-walking thread, the step every run takes, with its 32 ms walk
// update.
func BenchmarkThreadStep(b *testing.B) {
	th := NewThread(MustGet("ocean_cp"), 1e12, newTestRand())
	fs := []units.Megahertz{4200, 4310, 4420, 3900}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		sinkRetired, _ = th.Step(0.001, fs[i&3], 1.1, 2)
		i++
	}
}
