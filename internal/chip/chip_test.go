package chip

import (
	"math"
	"testing"

	"agsim/internal/cpm"
	"agsim/internal/firmware"
	"agsim/internal/pdn"
	"agsim/internal/power"
	"agsim/internal/workload"
)

// placeN places n never-finishing threads of the named workload on cores
// 0..n-1.
func placeN(c *Chip, name string, n int) {
	d := workload.MustGet(name)
	for i := 0; i < n; i++ {
		c.Place(i, workload.NewThread(d, 1e9, nil))
	}
}

// measure settles the chip and averages power, frequency and undervolt over
// one second.
func measure(c *Chip) (powerW float64, freq float64, undervoltMV float64) {
	c.Settle(2.0)
	const steps = 1000
	for i := 0; i < steps; i++ {
		c.Step(DefaultStepSec)
		powerW += float64(c.ChipPower())
		freq += float64(c.CoreFreq(0))
		undervoltMV += float64(c.UndervoltMV())
	}
	return powerW / steps, freq / steps, undervoltMV / steps
}

func runMode(t *testing.T, name string, n int, mode firmware.Mode) (powerW, freq, undervoltMV float64) {
	t.Helper()
	c := MustNew(DefaultConfig("p0", 42))
	placeN(c, name, n)
	c.SetMode(mode)
	return measure(c)
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig("x", 1)
	cfg.Cores = 0
	if _, err := New(cfg); err == nil {
		t.Error("expected error for zero cores")
	}
	cfg = DefaultConfig("x", 1)
	cfg.PDN.Cores = 4
	if _, err := New(cfg); err == nil {
		t.Error("expected error for PDN/core mismatch")
	}
	cfg = DefaultConfig("x", 1)
	cfg.LoadlineMilliohm = -1
	if _, err := New(cfg); err == nil {
		t.Error("expected error for negative loadline")
	}
}

func TestUndervoltSavesPowerOneCore(t *testing.T) {
	static, _, _ := runMode(t, "raytrace", 1, firmware.Static)
	uv, _, underv := runMode(t, "raytrace", 1, firmware.Undervolt)
	saving := (static - uv) / static * 100
	// Paper Fig. 3a: ~13% at one core (band 10.7-14.8% across workloads).
	if saving < 9 || saving > 17 {
		t.Errorf("one-core power saving = %.1f%%, want ~13%%", saving)
	}
	if underv < 50 || underv > 100 {
		t.Errorf("one-core undervolt = %.0f mV, want 50-100", underv)
	}
}

func TestUndervoltSavingShrinksWithCores(t *testing.T) {
	// Paper Fig. 3a: 13% at one core collapsing to ~3% at eight.
	var prev float64 = 100
	for _, n := range []int{1, 2, 4, 8} {
		static, _, _ := runMode(t, "raytrace", n, firmware.Static)
		uv, _, _ := runMode(t, "raytrace", n, firmware.Undervolt)
		saving := (static - uv) / static * 100
		if saving > prev+0.7 { // allow sensor noise slack
			t.Errorf("saving rose with cores at n=%d: %.1f%% > %.1f%%", n, saving, prev)
		}
		prev = saving
		if n == 8 && (saving < 2 || saving > 8) {
			t.Errorf("eight-core saving = %.1f%%, want 2-8%%", saving)
		}
	}
}

func TestWorkloadHeterogeneityAtFullLoad(t *testing.T) {
	// Paper Fig. 5a: at eight cores, low-power radix keeps ~12%
	// improvement while compute-intense swaptions drops to ~3%.
	staticS, _, _ := runMode(t, "swaptions", 8, firmware.Static)
	uvS, _, _ := runMode(t, "swaptions", 8, firmware.Undervolt)
	staticR, _, _ := runMode(t, "radix", 8, firmware.Static)
	uvR, _, _ := runMode(t, "radix", 8, firmware.Undervolt)
	saveS := (staticS - uvS) / staticS * 100
	saveR := (staticR - uvR) / staticR * 100
	if saveR < saveS+4 {
		t.Errorf("radix (%.1f%%) should beat swaptions (%.1f%%) by >4 points at 8 cores", saveR, saveS)
	}
}

func TestOverclockBoost(t *testing.T) {
	law := DefaultConfig("p0", 1).Law
	_, f1, _ := runMode(t, "lu_cb", 1, firmware.Overclock)
	_, f8, _ := runMode(t, "lu_cb", 8, firmware.Overclock)
	boost1 := f1/float64(law.FNom) - 1
	boost8 := f8/float64(law.FNom) - 1
	// Paper Fig. 4a: +10% at one core, ~+4% at eight.
	if boost1 < 0.08 || boost1 > 0.101 {
		t.Errorf("one-core boost = %.1f%%, want ~10%%", boost1*100)
	}
	if boost8 > boost1-0.02 {
		t.Errorf("eight-core boost %.1f%% should sit well below one-core %.1f%%", boost8*100, boost1*100)
	}
	if boost8 < 0.01 {
		t.Errorf("eight-core boost = %.1f%%, want still positive (paper: 4%%)", boost8*100)
	}
}

func TestStaticModeHoldsNominal(t *testing.T) {
	c := MustNew(DefaultConfig("p0", 7))
	placeN(c, "raytrace", 4)
	c.SetMode(firmware.Static)
	c.Settle(1)
	if c.SetPoint() != c.Law().VNom {
		t.Errorf("static set point = %v", c.SetPoint())
	}
	if c.CoreFreq(0) != c.Law().FNom {
		t.Errorf("static frequency = %v", c.CoreFreq(0))
	}
}

func TestCPMHoversAtCalibrationUnderUndervolt(t *testing.T) {
	// Paper §4.1: "CPMs typically hover around an output value of 2 when
	// adaptive guardbanding is active".
	c := MustNew(DefaultConfig("p0", 11))
	placeN(c, "raytrace", 4)
	c.SetMode(firmware.Undervolt)
	c.Settle(3)
	var sum float64
	const steps = 500
	for i := 0; i < steps; i++ {
		c.Step(DefaultStepSec)
		sum += float64(c.MinCPMSample())
	}
	mean := sum / steps
	if mean < float64(cpm.CalibTarget)-1 || mean > float64(cpm.CalibTarget)+2 {
		t.Errorf("converged min CPM = %.2f, want near %d", mean, cpm.CalibTarget)
	}
}

func TestManualModeCPMsFloat(t *testing.T) {
	// With guardbanding disabled, lowering voltage lowers CPM readings —
	// the Fig. 6 characterization methodology.
	c := MustNew(DefaultConfig("p0", 13))
	c.SetManual(1250, 3600)
	c.Settle(0.5)
	high := c.CoreCPMMean(0)
	c.SetManual(1100, 3600)
	c.Settle(0.5)
	low := c.CoreCPMMean(0)
	if low >= high {
		t.Errorf("CPM did not float with voltage: %.2f at 1250mV, %.2f at 1100mV", high, low)
	}
}

func TestNoTimingViolationsInAdaptiveModes(t *testing.T) {
	for _, mode := range []firmware.Mode{firmware.Undervolt, firmware.Overclock} {
		c := MustNew(DefaultConfig("p0", 17))
		placeN(c, "bodytrack", 8) // noisiest worst-case di/dt profile
		c.SetMode(mode)
		c.Settle(10)
		absorbed, violations := c.DroopStats()
		if violations != 0 {
			t.Errorf("%v mode: %d timing violations (absorbed %d)", mode, violations, absorbed)
		}
		if absorbed == 0 {
			t.Errorf("%v mode: no droops absorbed in 10 s — di/dt process inactive?", mode)
		}
	}
}

func TestDeadCPMFailsSafe(t *testing.T) {
	c := MustNew(DefaultConfig("p0", 19))
	placeN(c, "raytrace", 2)
	c.SetMode(firmware.Undervolt)
	c.Settle(2)
	if c.UndervoltMV() <= 0 {
		t.Fatal("precondition: chip should be undervolted before the fault")
	}
	c.KillCPM(0, 0)
	c.Settle(1)
	if c.SetPoint() != c.Law().VNom {
		t.Errorf("dead CPM did not force nominal voltage: %v", c.SetPoint())
	}
}

func TestVoltageNeverBelowRequirementPlusResidual(t *testing.T) {
	// Safety invariant: under undervolting, the worst core's ripple-bottom
	// voltage stays above V_req + (residual - one CPM quantum of slack).
	c := MustNew(DefaultConfig("p0", 23))
	placeN(c, "lu_cb", 8)
	c.SetMode(firmware.Undervolt)
	c.Settle(2)
	law := c.Law()
	for i := 0; i < 2000; i++ {
		c.Step(DefaultStepSec)
		for core := 0; core < c.Cores(); core++ {
			vmin := c.CoreVoltageMin(core)
			floor := law.VReq(c.CoreFreq(core)) + law.ResidualMV - 25
			if vmin < floor {
				t.Fatalf("core %d ripple bottom %v below safety floor %v", core, vmin, floor)
			}
		}
	}
}

func TestPlaceActivatesAndClearIdles(t *testing.T) {
	c := MustNew(DefaultConfig("p0", 29))
	if c.ActiveCores() != 0 {
		t.Fatal("fresh chip has active cores")
	}
	th := workload.NewThread(workload.MustGet("mcf"), 1, nil)
	c.Place(3, th)
	if c.Core(3).State() != power.Active || c.ActiveCores() != 1 {
		t.Error("Place did not activate core")
	}
	if got := c.Core(3).Threads(); len(got) != 1 || got[0] != th {
		t.Error("Threads accessor wrong")
	}
	c.ClearCore(3)
	if c.Core(3).State() != power.IdleOn || c.ActiveCores() != 0 {
		t.Error("ClearCore did not idle core")
	}
}

func TestSetCoreStatePanics(t *testing.T) {
	c := MustNew(DefaultConfig("p0", 31))
	c.Place(0, workload.NewThread(workload.MustGet("mcf"), 1, nil))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic gating a loaded core")
			}
		}()
		c.SetCoreState(0, power.Gated)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic activating an empty core")
			}
		}()
		c.SetCoreState(1, power.Active)
	}()
}

func TestGatingCutsPower(t *testing.T) {
	cIdle := MustNew(DefaultConfig("p0", 37))
	cIdle.SetMode(firmware.Static)
	cIdle.Settle(1)
	idleP := float64(cIdle.ChipPower())

	cGated := MustNew(DefaultConfig("p0", 37))
	for i := 0; i < 8; i++ {
		cGated.SetCoreState(i, power.Gated)
	}
	cGated.SetMode(firmware.Static)
	cGated.Settle(1)
	gatedP := float64(cGated.ChipPower())
	if gatedP >= idleP-15 {
		t.Errorf("gating all cores saved too little: %v vs %v W", gatedP, idleP)
	}
}

func TestIssueThrottleReducesMIPSAndPower(t *testing.T) {
	full := MustNew(DefaultConfig("p0", 41))
	placeN(full, "coremark", 8)
	full.SetMode(firmware.Static)
	full.Settle(1)

	throttled := MustNew(DefaultConfig("p0", 41))
	placeN(throttled, "coremark", 8)
	for i := 0; i < 8; i++ {
		throttled.SetIssueThrottle(i, 0.25)
	}
	throttled.SetMode(firmware.Static)
	throttled.Settle(1)

	if float64(throttled.TotalMIPS()) > 0.35*float64(full.TotalMIPS()) {
		t.Errorf("throttle 0.25 left MIPS at %v of %v", throttled.TotalMIPS(), full.TotalMIPS())
	}
	if throttled.ChipPower() >= full.ChipPower() {
		t.Error("throttling did not reduce power")
	}
}

func TestSetIssueThrottlePanics(t *testing.T) {
	c := MustNew(DefaultConfig("p0", 43))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.SetIssueThrottle(0, 0)
}

func TestEnergyAccumulation(t *testing.T) {
	c := MustNew(DefaultConfig("p0", 47))
	placeN(c, "mcf", 1)
	c.SetMode(firmware.Static)
	c.Settle(1)
	c.ResetEnergy()
	for i := 0; i < 1000; i++ {
		c.Step(DefaultStepSec)
	}
	e := c.EnergyJ()
	p := float64(c.ChipPower())
	// One second at roughly constant power: energy ≈ power.
	if e < 0.9*p || e > 1.1*p {
		t.Errorf("1s energy = %.1f J at %.1f W", e, p)
	}
}

func TestAllDoneAndRunToCompletion(t *testing.T) {
	c := MustNew(DefaultConfig("p0", 53))
	d := workload.MustGet("coremark")
	c.Place(0, workload.NewThread(d, 2.0, nil)) // 2 GInst at ~10k MIPS ≈ 0.2 s
	c.SetMode(firmware.Static)
	if c.AllDone() {
		t.Fatal("AllDone before running")
	}
	steps := 0
	for !c.AllDone() {
		c.Step(DefaultStepSec)
		steps++
		if steps > 10000 {
			t.Fatal("thread never finished")
		}
	}
	sec := float64(steps) * DefaultStepSec
	if sec < 0.1 || sec > 0.5 {
		t.Errorf("2 GInst coremark took %.2f s, want ~0.2", sec)
	}
}

func TestMemFactorSlowsCoreAndCutsPower(t *testing.T) {
	free := MustNew(DefaultConfig("p0", 59))
	placeN(free, "radix", 1)
	free.SetMode(firmware.Static)
	free.Settle(1)

	contended := MustNew(DefaultConfig("p0", 59))
	placeN(contended, "radix", 1)
	contended.SetMemFactor(0, 3)
	contended.SetMode(firmware.Static)
	contended.Settle(1)

	if contended.CoreMIPS(0) >= free.CoreMIPS(0) {
		t.Error("memory contention did not slow the core")
	}
	if contended.CorePower(0) >= free.CorePower(0) {
		t.Error("memory contention did not reduce core power")
	}
}

func TestBreakdownComponentsConsistent(t *testing.T) {
	c := MustNew(DefaultConfig("p0", 61))
	placeN(c, "raytrace", 8)
	c.SetMode(firmware.Static)
	c.Settle(2)
	b := c.Breakdown(0)
	if b.LoadlineMV <= 0 || b.IRDropMV <= 0 || b.TypicalDidtMV <= 0 {
		t.Errorf("breakdown has non-positive components: %+v", b)
	}
	// Loadline should dominate IR drop (0.55 vs ~0.3+local mΩ split), and
	// passive components should dominate typical di/dt at full load.
	if b.LoadlineMV <= b.TypicalDidtMV {
		t.Errorf("loadline %v should exceed typical di/dt %v at 8 cores", b.LoadlineMV, b.TypicalDidtMV)
	}
	total := c.TotalDropMV(0)
	sum := b.TotalMV()
	if total < 0.8*sum || total > 1.25*sum {
		t.Errorf("TotalDropMV %v inconsistent with breakdown sum %v", total, sum)
	}
}

func TestGlobalDropAffectsIdleCores(t *testing.T) {
	// Fig. 7's second finding: cores 4-7 see drop while only 0-3 work.
	c := MustNew(DefaultConfig("p0", 67))
	placeN(c, "lu_cb", 4)
	c.SetMode(firmware.Static)
	c.Settle(1)
	idleDrop := float64(c.Law().VNom - c.CoreVoltageDC(7))
	if idleDrop < 10 {
		t.Errorf("idle core 7 drop = %.1f mV, want global component > 10", idleDrop)
	}
	activeDrop := float64(c.Law().VNom - c.CoreVoltageDC(0))
	if activeDrop <= idleDrop {
		t.Errorf("active core drop %.1f not above idle core drop %.1f", activeDrop, idleDrop)
	}
}

// TestStepPanicsOnBadDt: each call that advances chip time refuses a
// duration that is not positive, NaN included, before it moves anything.
func TestStepPanicsOnBadDt(t *testing.T) {
	c := MustNew(DefaultConfig("p0", 71))
	placeN(c, "raytrace", 1)
	th := c.Core(0).Threads()[0]
	for _, adv := range []struct {
		name string
		run  func(dt float64)
	}{
		{"Step", c.Step},
		{"MacroStep", c.MacroStep},
		{"Advance", func(dt float64) { c.Advance(dt) }},
		{"FastForward", c.FastForward},
	} {
		for _, dt := range []float64{0, -DefaultStepSec, math.NaN()} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%v) did not panic", adv.name, dt)
					}
				}()
				adv.run(dt)
			}()
			if c.Time() != 0 || c.EnergyJ() != 0 || th.Remaining() != 1e9 || c.noise.TimeToWobbleRefresh() != 0 {
				t.Fatalf("%s(%v) moved the chip: time %v, energy %v J, thread remaining %v, wobble refresh in %v",
					adv.name, dt, c.Time(), c.EnergyJ(), th.Remaining(), c.noise.TimeToWobbleRefresh())
			}
		}
	}
}

func TestTemperatureTracksPower(t *testing.T) {
	c := MustNew(DefaultConfig("p0", 73))
	c.SetMode(firmware.Static)
	c.Settle(20)
	cool := float64(c.Temperature())
	placeN(c, "lu_cb", 8)
	c.Settle(20)
	hot := float64(c.Temperature())
	if hot <= cool+2 {
		t.Errorf("temperature did not rise under load: %.1f -> %.1f", cool, hot)
	}
	// Paper reports 27-38 °C across its sweep; stay in a sane band.
	if hot > 60 {
		t.Errorf("unrealistic temperature %.1f", hot)
	}
}

func TestMeshPDNOption(t *testing.T) {
	// Swapping the lumped plane for the distributed mesh must preserve the
	// paper's headline behaviour without re-calibration.
	cfg := DefaultConfig("mesh", 42)
	mp := pdn.DefaultMeshParams()
	cfg.Mesh = &mp
	runSave := func(n int) float64 {
		static := MustNew(cfg)
		placeN(static, "raytrace", n)
		static.SetMode(firmware.Static)
		ps, _, _ := measure(static)
		uv := MustNew(cfg)
		placeN(uv, "raytrace", n)
		uv.SetMode(firmware.Undervolt)
		pu, _, _ := measure(uv)
		return (ps - pu) / ps * 100
	}
	at1 := runSave(1)
	at8 := runSave(8)
	if at1 < 9 || at1 > 18 {
		t.Errorf("mesh 1-core saving = %.1f%%", at1)
	}
	if at8 >= at1 {
		t.Errorf("mesh saving did not collapse with cores: %.1f vs %.1f", at8, at1)
	}
}

func TestWithMeshEnablesMeshLane(t *testing.T) {
	cfg := DefaultConfig("mesh", 7).WithMesh()
	if cfg.Mesh == nil {
		t.Fatal("WithMesh left Mesh nil")
	}
	if got, want := *cfg.Mesh, pdn.DefaultMeshParams(); got != want {
		t.Errorf("WithMesh params = %+v, want defaults %+v", got, want)
	}
	// The original config is untouched (value semantics).
	if DefaultConfig("mesh", 7).Mesh != nil {
		t.Error("WithMesh mutated its receiver's source")
	}
	c := MustNew(cfg)
	placeN(c, "raytrace", 8)
	c.SetMode(firmware.Undervolt)
	c.Settle(0.5)
	if c.TotalDropMV(0) <= 0 {
		t.Error("mesh-lane chip reports no drop under load")
	}
}

func TestChipStepMeshAllocFree(t *testing.T) {
	// The transfer-matrix kernel keeps the mesh-fidelity step loop at the
	// same zero-allocation standard as the lumped plane.
	c := MustNew(DefaultConfig("mesh", 1).WithMesh())
	placeN(c, "raytrace", 8)
	c.SetMode(firmware.Undervolt)
	c.Settle(0.5)
	if allocs := testing.AllocsPerRun(200, func() {
		c.Step(DefaultStepSec)
	}); allocs != 0 {
		t.Errorf("mesh chip step allocated %v times per step", allocs)
	}
}

func TestPerCoreTemperatureGradient(t *testing.T) {
	// An active core runs hotter than an idle one on the same chip, and
	// per-core leakage follows: placement has a thermal cost.
	c := MustNew(DefaultConfig("p0", 127))
	placeN(c, "lu_cb", 2)
	c.SetMode(firmware.Static)
	c.Settle(20)
	hot := float64(c.CoreTemperature(0))
	cold := float64(c.CoreTemperature(7))
	if hot <= cold+2 {
		t.Errorf("no thermal gradient: active %.1f vs idle %.1f", hot, cold)
	}
	if hot > 60 {
		t.Errorf("unrealistic core temperature %.1f", hot)
	}
	if c.CorePower(0) <= c.CorePower(7) {
		t.Error("active core should out-draw idle core")
	}
}
