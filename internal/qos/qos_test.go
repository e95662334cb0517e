package qos

import (
	"testing"

	"agsim/internal/rng"
	"agsim/internal/units"
)

func tracker(seed uint64) *Tracker {
	return NewTracker(DefaultConfig(), rng.New(seed, "qos-test"))
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{ArrivalPerSec: 0, QueryGInst: 1, TargetP90Sec: 1, WindowSec: 1},
		{ArrivalPerSec: 1, QueryGInst: 0, TargetP90Sec: 1, WindowSec: 1},
		{ArrivalPerSec: 1, QueryGInst: 1, TargetP90Sec: 0, WindowSec: 1},
		{ArrivalPerSec: 1, QueryGInst: 1, TargetP90Sec: 1, WindowSec: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
}

func TestUtilization(t *testing.T) {
	c := DefaultConfig()
	// The default point runs near saturation at WebSearch's unloaded
	// throughput: that is what gives Fig. 17's queueing amplification.
	if rho := c.Utilization(units.MIPS(5730)); rho < 0.85 || rho > 0.98 {
		t.Errorf("utilization = %v, want near saturation", rho)
	}
	// 68.5/s * 0.0754 GInst ≈ 5.17 GInst/s; at 6886 MIPS ρ = 0.75.
	if rho := c.Utilization(units.MIPS(6886)); rho < 0.74 || rho > 0.76 {
		t.Errorf("utilization = %v, want 0.75", rho)
	}
}

func TestFastCoreRarelyViolates(t *testing.T) {
	tr := tracker(1)
	for i := 0; i < 400; i++ {
		tr.RunWindow(5730)
	}
	if v := tr.ViolationRate(); v > 0.15 {
		t.Errorf("fast core violation rate = %v, want small", v)
	}
}

func TestSlowCoreViolatesMore(t *testing.T) {
	fast := tracker(2)
	slow := tracker(2)
	for i := 0; i < 400; i++ {
		fast.RunWindow(5730)
		slow.RunWindow(5500)
	}
	if slow.ViolationRate() <= fast.ViolationRate() {
		t.Errorf("slow %v not above fast %v", slow.ViolationRate(), fast.ViolationRate())
	}
}

func TestQueueingAmplification(t *testing.T) {
	// A ~4% throughput change near saturation must move the mean p90 by
	// far more than 4% — the mechanism behind Fig. 17.
	mean := func(mips units.MIPS) float64 {
		tr := tracker(3)
		sum := 0.0
		for i := 0; i < 300; i++ {
			sum += tr.RunWindow(mips).P90Sec
		}
		return sum / 300
	}
	lo, hi := mean(5500), mean(5730)
	gain := (lo - hi) / hi
	if gain < 0.15 {
		t.Errorf("p90 moved only %.1f%% for a 4%% throughput change", gain*100)
	}
}

func TestOverloadSaturatesNotPanics(t *testing.T) {
	tr := tracker(4)
	for i := 0; i < 50; i++ {
		res := tr.RunWindow(1000) // ρ = 3: diverging queue
		if res.P90Sec < 0 {
			t.Fatal("negative latency")
		}
	}
	if v := tr.ViolationRate(); v < 0.9 {
		t.Errorf("overloaded violation rate = %v, want ~1", v)
	}
}

func TestStatsAccounting(t *testing.T) {
	tr := tracker(5)
	for i := 0; i < 10; i++ {
		tr.RunWindow(4200)
	}
	if tr.Windows() != 10 || len(tr.P90History()) != 10 {
		t.Errorf("windows = %d, history = %d", tr.Windows(), len(tr.P90History()))
	}
	tr.ResetStats()
	if tr.Windows() != 0 || tr.ViolationRate() != 0 || len(tr.P90History()) != 0 {
		t.Error("ResetStats incomplete")
	}
}

func TestRunWindowPanicsOnBadMIPS(t *testing.T) {
	tr := tracker(6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.RunWindow(0)
}

func TestNewTrackerPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for nil rng")
			}
		}()
		NewTracker(DefaultConfig(), nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for bad config")
			}
		}()
		NewTracker(Config{}, rng.New(1, "x"))
	}()
}

// TestRunWindowReusesItsBuffer pins the tracker's one sojourn buffer: once
// it has grown to a window's query count, a window allocates nothing
// beyond its share of the history's amortized growth.
func TestRunWindowReusesItsBuffer(t *testing.T) {
	tr := tracker(7)
	for i := 0; i < 8; i++ {
		tr.RunWindow(6000)
	}
	if allocs := testing.AllocsPerRun(200, func() { tr.RunWindow(6000) }); allocs != 0 {
		t.Errorf("RunWindow allocates %v times per window; want 0 once its buffer has grown", allocs)
	}
}
