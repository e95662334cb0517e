package server

import (
	"math"
	"testing"

	"agsim/internal/firmware"
	"agsim/internal/power"
	"agsim/internal/workload"
)

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Sockets = 0
	if _, err := New(cfg); err == nil {
		t.Error("expected error for zero sockets")
	}
	cfg = DefaultConfig(1)
	cfg.MemBWGBs = 0
	if _, err := New(cfg); err == nil {
		t.Error("expected error for zero bandwidth")
	}
	cfg = DefaultConfig(1)
	cfg.SharingPenalty = -1
	if _, err := New(cfg); err == nil {
		t.Error("expected error for negative sharing penalty")
	}
}

func TestPlacementHelpers(t *testing.T) {
	cons := ConsolidatedPlacements(5)
	for i, p := range cons {
		if p.Socket != 0 || p.Core != i {
			t.Errorf("consolidated[%d] = %+v", i, p)
		}
	}
	borr := BorrowedPlacements(5, 2)
	wantSockets := []int{0, 1, 0, 1, 0}
	wantCores := []int{0, 0, 1, 1, 2}
	for i, p := range borr {
		if p.Socket != wantSockets[i] || p.Core != wantCores[i] {
			t.Errorf("borrowed[%d] = %+v", i, p)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	s := MustNew(DefaultConfig(2))
	d := workload.MustGet("raytrace")
	if _, err := s.Submit("j", d, nil, 10); err == nil {
		t.Error("expected error for empty placements")
	}
	if _, err := s.Submit("j", d, ConsolidatedPlacements(1), 0); err == nil {
		t.Error("expected error for zero work")
	}
	if _, err := s.Submit("j", d, []Placement{{Socket: 5, Core: 0}}, 10); err == nil {
		t.Error("expected error for bad socket")
	}
	if _, err := s.Submit("j", d, []Placement{{Socket: 0, Core: 99}}, 10); err == nil {
		t.Error("expected error for bad core")
	}
	if _, err := s.Submit("a", d, ConsolidatedPlacements(2), 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("b", d, ConsolidatedPlacements(1), 10); err == nil {
		t.Error("expected collision error")
	}
}

// TestSubmitRefusesNaNWork: NaN work passes a `<= 0` check, and a thread
// holding NaN work never finishes. Submit refuses it before it places a
// thread, so no job is kept and every core stays free.
func TestSubmitRefusesNaNWork(t *testing.T) {
	s := MustNew(DefaultConfig(2))
	if _, err := s.Submit("n", workload.MustGet("raytrace"), ConsolidatedPlacements(2), math.NaN()); err == nil {
		t.Fatal("Submit accepted NaN work")
	}
	if len(s.Jobs()) != 0 {
		t.Errorf("a refused Submit left %d jobs", len(s.Jobs()))
	}
	for si, free := range s.FreeCores(nil) {
		if len(free) != s.Chip(si).Cores() || s.Chip(si).ActiveCores() != 0 {
			t.Errorf("socket %d: %d of %d cores free, %d active after a refused Submit",
				si, len(free), s.Chip(si).Cores(), s.Chip(si).ActiveCores())
		}
	}
}

func TestJobTopology(t *testing.T) {
	s := MustNew(DefaultConfig(3))
	d := workload.MustGet("lu_ncb")
	j := s.MustSubmit("j", d, BorrowedPlacements(4, 2), 10)
	socks := j.Sockets()
	if len(socks) != 2 {
		t.Errorf("Sockets = %v", socks)
	}
	if !j.split() {
		t.Error("4-thread borrowed job should be split")
	}
	j2 := s.MustSubmit("j2", d, []Placement{{Socket: 0, Core: 4}}, 10)
	if j2.split() {
		t.Error("single-placement job is not split")
	}
}

func TestRemoveFreesCores(t *testing.T) {
	s := MustNew(DefaultConfig(4))
	d := workload.MustGet("raytrace")
	j := s.MustSubmit("j", d, ConsolidatedPlacements(3), 10)
	if len(s.Jobs()) != 1 || s.Chip(0).ActiveCores() != 3 {
		t.Fatal("submit did not place")
	}
	s.Remove(j)
	if len(s.Jobs()) != 0 || s.Chip(0).ActiveCores() != 0 {
		t.Error("remove did not clear")
	}
	// The cores are reusable.
	if _, err := s.Submit("j2", d, ConsolidatedPlacements(3), 10); err != nil {
		t.Error(err)
	}
}

func TestGateUnloadedCoresPerSocket(t *testing.T) {
	s := MustNew(DefaultConfig(5))
	d := workload.MustGet("raytrace")
	s.MustSubmit("j", d, ConsolidatedPlacements(2), 100)
	s.GateUnloadedCores(6, 0)
	gated := func(si int) int {
		n := 0
		c := s.Chip(si)
		for i := 0; i < c.Cores(); i++ {
			if c.Core(i).State() == power.Gated {
				n++
			}
		}
		return n
	}
	if g := gated(0); g != 0 {
		t.Errorf("socket 0 gated %d cores, want 0 (2 active + 6 kept)", g)
	}
	if g := gated(1); g != 8 {
		t.Errorf("socket 1 gated %d cores, want 8", g)
	}
	s.UngateAll()
	if gated(0) != 0 || gated(1) != 0 {
		t.Error("UngateAll left gated cores")
	}
}

func TestMemoryContentionReliefFromSplitting(t *testing.T) {
	// Fig. 14 right edge: bandwidth-heavy radix roughly doubles throughput
	// when split across sockets.
	d := workload.MustGet("radix")

	cons := MustNew(DefaultConfig(6))
	cons.MustSubmit("j", d, ConsolidatedPlacements(8), d.WorkGInst)
	cons.SetMode(firmware.Static)
	tCons, done := cons.RunUntilDone(300)
	if !done {
		t.Fatal("consolidated radix did not finish")
	}

	split := MustNew(DefaultConfig(6))
	split.MustSubmit("j", d, BorrowedPlacements(8, 2), d.WorkGInst)
	split.SetMode(firmware.Static)
	tSplit, done := split.RunUntilDone(300)
	if !done {
		t.Fatal("split radix did not finish")
	}

	speedup := tCons / tSplit
	if speedup < 1.5 || speedup > 3.5 {
		t.Errorf("radix split speedup = %.2f, want 1.5-3.5 (paper: 50-171%% energy gains)", speedup)
	}
}

func TestSharingPenaltyFromSplitting(t *testing.T) {
	// Fig. 14 left edge: lu_ncb loses >20% performance when split.
	d := workload.MustGet("lu_ncb")

	cons := MustNew(DefaultConfig(7))
	cons.MustSubmit("j", d, ConsolidatedPlacements(8), d.WorkGInst)
	cons.SetMode(firmware.Static)
	tCons, done := cons.RunUntilDone(300)
	if !done {
		t.Fatal("consolidated lu_ncb did not finish")
	}

	split := MustNew(DefaultConfig(7))
	split.MustSubmit("j", d, BorrowedPlacements(8, 2), d.WorkGInst)
	split.SetMode(firmware.Static)
	tSplit, done := split.RunUntilDone(300)
	if !done {
		t.Fatal("split lu_ncb did not finish")
	}

	slowdown := tSplit/tCons - 1
	if slowdown < 0.2 {
		t.Errorf("lu_ncb split slowdown = %.1f%%, want > 20%%", slowdown*100)
	}
}

func TestLoadlineBorrowingSavesPower(t *testing.T) {
	// The headline mechanism (Fig. 12b): with adaptive guardbanding on,
	// balancing eight raytrace threads across sockets consumes less total
	// power than consolidating them, because each socket's smaller current
	// leaves more undervolt budget.
	measure := func(borrowed bool) float64 {
		s := MustNew(DefaultConfig(8))
		d := workload.MustGet("raytrace")
		if borrowed {
			s.MustSubmit("j", d, BorrowedPlacements(8, 2), 1e9)
			s.GateUnloadedCores(0, 0)
		} else {
			s.MustSubmit("j", d, ConsolidatedPlacements(8), 1e9)
			s.GateUnloadedCores(0, 0)
		}
		s.SetMode(firmware.Undervolt)
		s.Settle(3)
		sum := 0.0
		for i := 0; i < 1000; i++ {
			s.Step(0.001)
			sum += float64(s.TotalPower())
		}
		return sum / 1000
	}
	cons := measure(false)
	borr := measure(true)
	imp := (cons - borr) / cons * 100
	// Paper: 8.5% for raytrace at eight cores, 6.2% average across suites.
	if imp < 3 || imp > 12 {
		t.Errorf("loadline borrowing improvement = %.1f%%, want 3-12%%", imp)
	}
	// Both sockets should carry deeper undervolt than the consolidated
	// loaded socket.
	sBorr := MustNew(DefaultConfig(8))
	sBorr.MustSubmit("j", workload.MustGet("raytrace"), BorrowedPlacements(8, 2), 1e9)
	sBorr.SetMode(firmware.Undervolt)
	sBorr.Settle(3)
	sCons := MustNew(DefaultConfig(8))
	sCons.MustSubmit("j", workload.MustGet("raytrace"), ConsolidatedPlacements(8), 1e9)
	sCons.SetMode(firmware.Undervolt)
	sCons.Settle(3)
	if sBorr.Chip(0).UndervoltMV() <= sCons.Chip(0).UndervoltMV() {
		t.Errorf("borrowed undervolt %v not deeper than consolidated %v",
			sBorr.Chip(0).UndervoltMV(), sCons.Chip(0).UndervoltMV())
	}
}

func TestFullyGatedChipHoldsNominal(t *testing.T) {
	// An all-gated chip has no live CPMs; its firmware must fail safe to
	// the nominal set point rather than undervolting blind.
	s := MustNew(DefaultConfig(9))
	d := workload.MustGet("raytrace")
	s.MustSubmit("j", d, ConsolidatedPlacements(4), 1e9)
	s.GateUnloadedCores(4, 0)
	s.SetMode(firmware.Undervolt)
	s.Settle(2)
	if uv := s.Chip(1).UndervoltMV(); uv != 0 {
		t.Errorf("fully gated chip undervolted %v", uv)
	}
	if uv := s.Chip(0).UndervoltMV(); uv <= 0 {
		t.Error("loaded chip should undervolt")
	}
}

func TestRunUntilDoneTimeout(t *testing.T) {
	s := MustNew(DefaultConfig(10))
	d := workload.MustGet("swaptions")
	s.MustSubmit("j", d, ConsolidatedPlacements(1), 1e6) // absurdly large
	s.SetMode(firmware.Static)
	elapsed, done := s.RunUntilDone(0.1)
	if done {
		t.Error("should have timed out")
	}
	if elapsed < 0.1 {
		t.Errorf("elapsed = %v", elapsed)
	}
	if !s.AllDone() == false && s.AllDone() {
		t.Error("job cannot be done")
	}
}

func TestEnergyAccounting(t *testing.T) {
	s := MustNew(DefaultConfig(11))
	d := workload.MustGet("mcf")
	s.MustSubmit("j", d, ConsolidatedPlacements(1), 1e9)
	s.SetMode(firmware.Static)
	s.Settle(1)
	s.ResetEnergy()
	s.Settle(1)
	e := s.TotalEnergyJ()
	p := float64(s.TotalPower())
	if e < 0.9*p || e > 1.1*p {
		t.Errorf("1 s energy %v J vs power %v W", e, p)
	}
}

func TestSocketBandwidthDemand(t *testing.T) {
	s := MustNew(DefaultConfig(12))
	d := workload.MustGet("lbm")
	s.MustSubmit("j", d, ConsolidatedPlacements(8), 1e9)
	s.SetMode(firmware.Static)
	s.Settle(1)
	if dem := s.SocketBandwidthDemand(0); dem < 5 {
		t.Errorf("eight lbm copies demand %.1f GB/s, want substantial", dem)
	}
	if dem := s.SocketBandwidthDemand(1); dem != 0 {
		t.Errorf("idle socket demand = %v", dem)
	}
}

func TestSMTPlacement(t *testing.T) {
	// Two placements on the same (socket, core) from one job share the
	// core via SMT.
	s := MustNew(DefaultConfig(13))
	d := workload.MustGet("swaptions")
	j, err := s.Submit("j", d, []Placement{{0, 0}, {0, 0}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Chip(0).Core(0).Threads()) != 2 {
		t.Fatalf("SMT placement: %d threads on core", len(s.Chip(0).Core(0).Threads()))
	}
	if j.split() {
		t.Error("same-core job is not split")
	}
	if s.Chip(0).ActiveCores() != 1 {
		t.Error("one core should be active")
	}
}
