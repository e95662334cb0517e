package experiments

import (
	"math"
	"strings"
	"testing"

	"agsim/internal/firmware"
	"agsim/internal/power"
	"agsim/internal/server"
	"agsim/internal/workload"
)

func TestHashDeterministicAndSpread(t *testing.T) {
	if hash("abc") != hash("abc") {
		t.Error("hash not deterministic")
	}
	if hash("abc") == hash("abd") {
		t.Error("hash collides on adjacent strings")
	}
}

func TestImprovementPct(t *testing.T) {
	if got := improvementPct(100, 90); got != 10 {
		t.Errorf("improvementPct = %v", got)
	}
	if got := improvementPct(0, 50); got != 0 {
		t.Errorf("improvementPct(0, .) = %v", got)
	}
	if got := improvementPct(100, 110); got != -10 {
		t.Errorf("regression = %v", got)
	}
}

func TestOptionsCoreCounts(t *testing.T) {
	full := DefaultOptions().coreCounts()
	if len(full) != 8 || full[0] != 1 || full[7] != 8 {
		t.Errorf("full sweep = %v", full)
	}
	quick := QuickOptions().coreCounts()
	if len(quick) != 3 {
		t.Errorf("quick sweep = %v", quick)
	}
	// Both must include the endpoints the headline statistics read.
	for _, sweep := range [][]int{full, quick} {
		has1, has8 := false, false
		for _, n := range sweep {
			has1 = has1 || n == 1
			has8 = has8 || n == 8
		}
		if !has1 || !has8 {
			t.Errorf("sweep %v missing endpoints", sweep)
		}
	}
}

// TestWireOptionsValidate holds Options.Validate, the check on the
// run/report flags: it rejects each bad field on its own, starting from
// options that validate, and accepts the zero values that select
// defaults.
func TestWireOptionsValidate(t *testing.T) {
	for _, o := range []Options{DefaultOptions(), QuickOptions()} {
		if err := o.Validate(); err != nil {
			t.Fatalf("stock options rejected: %v", err)
		}
	}
	ok := QuickOptions()
	ok.SettleSec, ok.MeasureSec, ok.TargetCI, ok.Workers, ok.Nodes = 0, 0, 0, 0, 0
	if err := ok.Validate(); err != nil {
		t.Fatalf("zero settle/measure/ci/workers/nodes rejected: %v", err)
	}

	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		set   func(*Options)
	}{
		{"settle_sec", func(o *Options) { o.SettleSec = -1 }},
		{"settle_sec", func(o *Options) { o.SettleSec = nan }},
		{"settle_sec", func(o *Options) { o.SettleSec = inf }},
		{"measure_sec", func(o *Options) { o.MeasureSec = -0.5 }},
		{"measure_sec", func(o *Options) { o.MeasureSec = nan }},
		{"measure_sec", func(o *Options) { o.MeasureSec = -inf }},
		{"target_ci", func(o *Options) { o.TargetCI = -1 }},
		{"target_ci", func(o *Options) { o.TargetCI = nan }},
		{"target_ci", func(o *Options) { o.TargetCI = inf }},
		{"work_scale", func(o *Options) { o.WorkScale = 0 }},
		{"work_scale", func(o *Options) { o.WorkScale = -1 }},
		{"work_scale", func(o *Options) { o.WorkScale = nan }},
		{"work_scale", func(o *Options) { o.WorkScale = inf }},
		{"workers", func(o *Options) { o.Workers = -1 }},
		{"nodes", func(o *Options) { o.Nodes = -4 }},
	} {
		o := QuickOptions()
		tc.set(&o)
		err := o.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: got %v, want an error naming %s", o, err, tc.field)
		}
	}
}

func TestChipSteadyIsDeterministic(t *testing.T) {
	o := QuickOptions()
	a := chipSteady(o, "raytrace", 4, firmware.Undervolt)
	b := chipSteady(o, "raytrace", 4, firmware.Undervolt)
	if a.PowerW != b.PowerW || a.Freq0MHz != b.Freq0MHz || a.UndervoltMV != b.UndervoltMV {
		t.Errorf("same-options measurements diverged: %+v vs %+v", a, b)
	}
}

// TestFig12ScheduleShapes: submitSchedule places n = 1..8 threads and
// keeps the scenario's eight cores powered, all on socket 0 under
// consolidation and four per socket under borrowing.
func TestFig12ScheduleShapes(t *testing.T) {
	d := workload.MustGet("raytrace")
	for n := 1; n <= 8; n++ {
		for _, borrow := range []bool{false, true} {
			s := server.MustNew(server.DefaultConfig(1))
			j := submitSchedule(s, d, n, borrow)
			want := [2]int{8, 0}
			if borrow {
				want = [2]int{4, 4}
			}
			var got [2]int
			for si := range got {
				c := s.Chip(si)
				for i := 0; i < c.Cores(); i++ {
					if c.Core(i).State() != power.Gated {
						got[si]++
					}
				}
			}
			if len(j.Threads) != n || got != want {
				t.Errorf("n=%d borrow=%v: %d threads, powered %v; want %d and %v", n, borrow, len(j.Threads), got, n, want)
			}
		}
	}
}
