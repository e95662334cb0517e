package core

import (
	"testing"

	"agsim/internal/firmware"
	"agsim/internal/power"
	"agsim/internal/server"
	"agsim/internal/workload"
)

// layout is the Fig. 11 layout of n threads on s's free cores:
// consolidated (kept together) or borrowed (spread across the sockets).
func layout(t *testing.T, s *server.Server, n int, borrowed bool) []server.Placement {
	t.Helper()
	ps, ok := server.PlaceOnFree(s.FreeCores(nil), n, !borrowed)
	if !ok {
		t.Fatalf("no room for %d threads", n)
	}
	return ps
}

// allPowered is the rebalancer floor of a server that gates no core.
const allPowered = 16

// powered counts the server's cores that are not gated.
func powered(s *server.Server) int {
	n := 0
	for si := 0; si < s.Sockets(); si++ {
		c := s.Chip(si)
		for i := 0; i < c.Cores(); i++ {
			if c.Core(i).State() != power.Gated {
				n++
			}
		}
	}
	return n
}

// TestRebalancerKeepsPoweredFloor: a consolidated job on a server gated
// to eight cores is spread 4+4 by the rebalancer's migration, and the
// server still has exactly eight cores powered: the vacated cores gate
// again instead of idling on.
func TestRebalancerKeepsPoweredFloor(t *testing.T) {
	s := server.MustNew(server.DefaultConfig(71))
	s.MustSubmit("j", workload.MustGet("raytrace"), layout(t, s, 8, false), 1e9)
	s.GateUnloadedCores(8, true)
	s.SetMode(firmware.Undervolt)
	if got := powered(s); got != 8 {
		t.Fatalf("%d cores powered before rebalancing, want 8", got)
	}
	r := NewRebalancer(8, true)
	for i := 0; i < 3000; i++ {
		s.Step(0.001)
		r.Tick(s, 0.001)
	}
	if r.Migrations() == 0 {
		t.Fatal("rebalancer never migrated")
	}
	if a0, a1 := s.Chip(0).ActiveCores(), s.Chip(1).ActiveCores(); a0 != 4 || a1 != 4 {
		t.Errorf("threads sit %d+%d after rebalancing, want 4+4", a0, a1)
	}
	if got := powered(s); got != 8 {
		t.Errorf("%d cores powered after the migration, want the floor of 8", got)
	}
}

func TestRebalancerBalancesConsolidatedJob(t *testing.T) {
	s := server.MustNew(server.DefaultConfig(71))
	d := workload.MustGet("raytrace")
	s.MustSubmit("j", d, layout(t, s, 8, false), 1e9)
	s.SetMode(firmware.Undervolt)
	s.Settle(1)

	r := NewRebalancer(allPowered, false)
	moved := false
	for i := 0; i < 3000; i++ {
		s.Step(0.001)
		if r.Tick(s, 0.001) {
			moved = true
		}
	}
	if !moved || r.Migrations() == 0 {
		t.Fatal("rebalancer never migrated")
	}
	a0, a1 := s.Chip(0).ActiveCores(), s.Chip(1).ActiveCores()
	if diff := a0 - a1; diff < -1 || diff > 1 {
		t.Errorf("still imbalanced after rebalancing: %d vs %d", a0, a1)
	}
	// The schedule must keep converging, not thrash.
	if r.Migrations() > 3 {
		t.Errorf("rebalancer thrashing: %d migrations", r.Migrations())
	}
}

func TestRebalancerRespectsSharingHeavyJobs(t *testing.T) {
	s := server.MustNew(server.DefaultConfig(73))
	d := workload.MustGet("lu_ncb") // sharing-heavy
	s.MustSubmit("j", d, layout(t, s, 8, false), 1e9)
	s.SetMode(firmware.Undervolt)
	r := NewRebalancer(allPowered, false)
	for i := 0; i < 3000; i++ {
		s.Step(0.001)
		r.Tick(s, 0.001)
	}
	if r.Migrations() != 0 {
		t.Errorf("rebalancer split a sharing-heavy job %d times", r.Migrations())
	}
	if s.Chip(0).ActiveCores() != 8 {
		t.Error("lu_ncb moved off its socket")
	}
}

func TestRebalancerLeavesBalancedSchedulesAlone(t *testing.T) {
	s := server.MustNew(server.DefaultConfig(79))
	d := workload.MustGet("swaptions")
	s.MustSubmit("j", d, layout(t, s, 8, true), 1e9)
	s.SetMode(firmware.Undervolt)
	r := NewRebalancer(allPowered, false)
	for i := 0; i < 3000; i++ {
		s.Step(0.001)
		r.Tick(s, 0.001)
	}
	if r.Migrations() != 0 {
		t.Errorf("rebalancer disturbed a balanced schedule %d times", r.Migrations())
	}
}

func TestRebalancerImprovesPower(t *testing.T) {
	run := func(withRebalancer bool) float64 {
		s := server.MustNew(server.DefaultConfig(83))
		d := workload.MustGet("raytrace")
		s.MustSubmit("j", d, layout(t, s, 8, false), 1e9)
		s.SetMode(firmware.Undervolt)
		r := NewRebalancer(allPowered, false)
		// Let the rebalancer act, then settle and measure.
		for i := 0; i < 2000; i++ {
			s.Step(0.001)
			if withRebalancer {
				r.Tick(s, 0.001)
			}
		}
		s.Settle(2)
		sum := 0.0
		for i := 0; i < 1000; i++ {
			s.Step(0.001)
			sum += float64(s.TotalPower())
		}
		return sum / 1000
	}
	static := run(false)
	balanced := run(true)
	if balanced >= static {
		t.Errorf("rebalancing did not reduce power: %v vs %v", balanced, static)
	}
}

func TestMigratePreservesProgressAndChargesCost(t *testing.T) {
	s := server.MustNew(server.DefaultConfig(87))
	d := workload.MustGet("swaptions")
	j := s.MustSubmit("j", d, layout(t, s, 2, false), 100)
	s.SetMode(firmware.Static)
	s.Settle(0.5)
	retired := j.Threads[0].Retired()
	if retired <= 0 {
		t.Fatal("no progress before migration")
	}
	remainingBefore := j.Threads[0].Remaining()
	if err := s.Migrate(j, []server.Placement{{Socket: 0, Core: 0}, {Socket: 1, Core: 0}}); err != nil {
		t.Fatal(err)
	}
	if j.Threads[0].Retired() != retired {
		t.Error("migration lost progress")
	}
	// Thread 0 stayed on P0 core 0 (same placement) — no cost; thread 1
	// moved to P1 and pays.
	if j.Threads[0].Remaining() != remainingBefore {
		t.Errorf("unmoved thread charged: %v vs %v", j.Threads[0].Remaining(), remainingBefore)
	}
	// The moved thread's placement is live: it keeps running on socket 1.
	s.Settle(0.2)
	if s.Chip(1).ActiveCores() != 1 {
		t.Error("migrated thread not running on socket 1")
	}
}

func TestMigrateValidation(t *testing.T) {
	s := server.MustNew(server.DefaultConfig(91))
	d := workload.MustGet("swaptions")
	j := s.MustSubmit("a", d, layout(t, s, 2, false), 100)
	s.MustSubmit("b", d, []server.Placement{{Socket: 1, Core: 0}}, 100)

	if err := s.Migrate(j, []server.Placement{{Socket: 0, Core: 0}, {Socket: 0, Core: 1}, {Socket: 0, Core: 2}}); err == nil {
		t.Error("expected arity error")
	}
	if err := s.Migrate(j, []server.Placement{{Socket: 9, Core: 0}, {Socket: 0, Core: 1}}); err == nil {
		t.Error("expected range error")
	}
	// Collision with job b.
	if err := s.Migrate(j, []server.Placement{{Socket: 1, Core: 0}, {Socket: 1, Core: 1}}); err == nil {
		t.Error("expected collision error")
	}
	// The failed migrations left the job where it was.
	if s.Chip(0).ActiveCores() != 2 {
		t.Error("failed migration disturbed placements")
	}
}
