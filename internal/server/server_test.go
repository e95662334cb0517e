package server

import (
	"fmt"
	"math"
	"math/rand/v2"
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

// layout is the Fig. 11 layout of n threads on s's free cores:
// consolidated (kept together) or borrowed (spread across the sockets).
func layout(s *Server, n int, borrowed bool) []Placement {
	ps, ok := PlaceOnFree(s.FreeCores(nil), n, !borrowed)
	if !ok {
		panic(fmt.Sprintf("server: no room for %d threads", n))
	}
	return ps
}

// TestPlacementHelpers: on an empty default server PlaceOnFree gives the
// paper's Fig. 11 layouts. Consolidated, n = 1..8 threads fill P0 cores
// 0..n-1, and n = 9..16 fill all of P0 and P1 cores 0..n-9 (8 + (n-8));
// borrowed, n = 1..16, thread i lands on socket i mod 2, core i/2.
func TestPlacementHelpers(t *testing.T) {
	s := MustNew(DefaultConfig(1))
	for _, tc := range []struct {
		borrowed bool
		want     func(i int) Placement
	}{
		{false, func(i int) Placement { return Placement{Socket: i / 8, Core: i % 8} }},
		{true, func(i int) Placement { return Placement{Socket: i % 2, Core: i / 2} }},
	} {
		for n := 1; n <= 16; n++ {
			ps, ok := PlaceOnFree(s.FreeCores(nil), n, !tc.borrowed)
			if !ok || len(ps) != n {
				t.Fatalf("borrowed=%v n=%d: ok=%v, %d placements", tc.borrowed, n, ok, len(ps))
			}
			for i, p := range ps {
				if p != tc.want(i) {
					t.Errorf("borrowed=%v n=%d: placement %d = %+v, want %+v", tc.borrowed, n, i, p, tc.want(i))
				}
			}
		}
	}
}

// TestPlaceOnFreeBalances: spreading takes each thread to the socket with
// the most free cores, so on an empty server no socket gets two threads
// more than the other (socket 0 takes the odd one), and over random
// occupancies every socket that took a thread keeps at least as many free
// cores as any other, less one. No core is handed out twice or busy.
func TestPlaceOnFreeBalances(t *testing.T) {
	s := MustNew(DefaultConfig(1))
	for n := 1; n <= 16; n++ {
		ps, ok := PlaceOnFree(s.FreeCores(nil), n, false)
		if !ok {
			t.Fatalf("n=%d: no room", n)
		}
		counts := []int{0, 0}
		seen := map[Placement]bool{}
		for _, p := range ps {
			if seen[p] {
				t.Fatalf("n=%d: duplicate placement %+v", n, p)
			}
			seen[p] = true
			counts[p.Socket]++
		}
		if diff := counts[0] - counts[1]; diff < 0 || diff > 1 {
			t.Errorf("n=%d: imbalance %v", n, counts)
		}
	}

	r := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 200; trial++ {
		free := [][]int{nil, nil}
		busy := map[Placement]bool{}
		for si := range free {
			for core := 0; core < 8; core++ {
				if r.IntN(3) == 0 {
					busy[Placement{Socket: si, Core: core}] = true
				} else {
					free[si] = append(free[si], core)
				}
			}
		}
		room := len(free[0]) + len(free[1])
		n := r.IntN(room + 1)
		left := []int{len(free[0]), len(free[1])}
		ps, ok := PlaceOnFree(free, n, false)
		if !ok || len(ps) != n {
			t.Fatalf("%d threads on %d free cores: ok=%v, %d placements", n, room, ok, len(ps))
		}
		took := []bool{false, false}
		for _, p := range ps {
			if busy[p] {
				t.Fatalf("placement %+v on a busy or already used core", p)
			}
			busy[p] = true
			left[p.Socket]--
			took[p.Socket] = true
		}
		for a := range left {
			for b := range left {
				if took[a] && left[a] < left[b]-1 {
					t.Fatalf("%d threads: socket %d took threads down to %d free cores while socket %d kept %d",
						n, a, left[a], b, left[b])
				}
			}
		}
	}
}

// TestPlaceOnFreePacksLowestSocketFirst: on a partly loaded server a job
// kept together goes whole to the first socket with room; when none has
// room it takes socket 0's free cores in index order, then socket 1's.
func TestPlaceOnFreePacksLowestSocketFirst(t *testing.T) {
	s := MustNew(DefaultConfig(1))
	d := workload.MustGet("raytrace")
	s.MustSubmit("a", d, []Placement{{0, 0}, {0, 2}, {0, 4}, {1, 1}}, 10)
	// Free: P0 cores 1, 3, 5, 6, 7 and P1 cores 0, 2..7.
	for _, tc := range []struct {
		n    int
		want []Placement
	}{
		{5, []Placement{{0, 1}, {0, 3}, {0, 5}, {0, 6}, {0, 7}}},
		{6, []Placement{{1, 0}, {1, 2}, {1, 3}, {1, 4}, {1, 5}, {1, 6}}},
		{9, []Placement{{0, 1}, {0, 3}, {0, 5}, {0, 6}, {0, 7}, {1, 0}, {1, 2}, {1, 3}, {1, 4}}},
		{12, []Placement{{0, 1}, {0, 3}, {0, 5}, {0, 6}, {0, 7}, {1, 0}, {1, 2}, {1, 3}, {1, 4}, {1, 5}, {1, 6}, {1, 7}}},
	} {
		ps, ok := PlaceOnFree(s.FreeCores(nil), tc.n, true)
		if !ok || fmt.Sprint(ps) != fmt.Sprint(tc.want) {
			t.Errorf("%d threads kept together: ok=%v, %v, want %v", tc.n, ok, ps, tc.want)
		}
	}
}

// TestPlaceOnFreeRefusesOverfull: a job with more threads than free cores
// gets no placements, kept together or spread, on an empty or a partly
// loaded server; one thread fewer fits.
func TestPlaceOnFreeRefusesOverfull(t *testing.T) {
	s := MustNew(DefaultConfig(1))
	for _, together := range []bool{false, true} {
		if ps, ok := PlaceOnFree(s.FreeCores(nil), 17, together); ok || ps != nil {
			t.Errorf("together=%v: 17 threads on 16 cores gave ok=%v, %v", together, ok, ps)
		}
	}
	s.MustSubmit("j", workload.MustGet("raytrace"), layout(s, 5, true), 10)
	for _, together := range []bool{false, true} {
		if ps, ok := PlaceOnFree(s.FreeCores(nil), 12, together); ok || ps != nil {
			t.Errorf("together=%v: 12 threads on 11 free cores gave ok=%v, %v", together, ok, ps)
		}
		if ps, ok := PlaceOnFree(s.FreeCores(nil), 11, together); !ok || len(ps) != 11 {
			t.Errorf("together=%v: 11 threads on 11 free cores gave ok=%v, %d placements", together, ok, len(ps))
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	s := MustNew(DefaultConfig(2))
	d := workload.MustGet("raytrace")
	if _, err := s.Submit("j", d, nil, 10); err == nil {
		t.Error("expected error for empty placements")
	}
	if _, err := s.Submit("j", d, layout(s, 1, false), 0); err == nil {
		t.Error("expected error for zero work")
	}
	if _, err := s.Submit("j", d, []Placement{{Socket: 5, Core: 0}}, 10); err == nil {
		t.Error("expected error for bad socket")
	}
	if _, err := s.Submit("j", d, []Placement{{Socket: 0, Core: 99}}, 10); err == nil {
		t.Error("expected error for bad core")
	}
	if _, err := s.Submit("a", d, layout(s, 2, false), 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("b", d, []Placement{{Socket: 0, Core: 0}}, 10); err == nil {
		t.Error("expected collision error")
	}
}

// TestSubmitRefusesNaNWork: NaN work passes a `<= 0` check, and a thread
// holding NaN work never finishes. Submit refuses it before it places a
// thread, so no job is kept and every core stays free.
func TestSubmitRefusesNaNWork(t *testing.T) {
	s := MustNew(DefaultConfig(2))
	if _, err := s.Submit("n", workload.MustGet("raytrace"), layout(s, 2, false), math.NaN()); err == nil {
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

// TestSubmitRefusedPlacementLeavesNothing: Submit checks every placement
// before it places any thread, so a job refused at its second placement
// leaves its first core free and untracked.
func TestSubmitRefusedPlacementLeavesNothing(t *testing.T) {
	s := MustNew(DefaultConfig(2))
	d := workload.MustGet("raytrace")
	if _, err := s.Submit("p", d, []Placement{{Socket: 0, Core: 0}, {Socket: 5, Core: 0}}, 10); err == nil {
		t.Fatal("Submit accepted a placement on socket 5")
	}
	if a0, a1 := s.Chip(0).ActiveCores(), s.Chip(1).ActiveCores(); a0 != 0 || a1 != 0 {
		t.Errorf("a refused Submit left %d + %d cores active", a0, a1)
	}
	if len(s.Jobs()) != 0 {
		t.Errorf("a refused Submit left %d jobs", len(s.Jobs()))
	}
	if _, err := s.Submit("q", d, []Placement{{Socket: 0, Core: 0}}, 10); err != nil {
		t.Errorf("P0 core 0 still taken after a refused Submit: %v", err)
	}
}

func TestJobTopology(t *testing.T) {
	s := MustNew(DefaultConfig(3))
	d := workload.MustGet("lu_ncb")
	j := s.MustSubmit("j", d, layout(s, 4, true), 10)
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
	j := s.MustSubmit("j", d, layout(s, 3, false), 10)
	if len(s.Jobs()) != 1 || s.Chip(0).ActiveCores() != 3 {
		t.Fatal("submit did not place")
	}
	s.Remove(j)
	if len(s.Jobs()) != 0 || s.Chip(0).ActiveCores() != 0 {
		t.Error("remove did not clear")
	}
	// The cores are reusable.
	if _, err := s.Submit("j2", d, layout(s, 3, false), 10); err != nil {
		t.Error(err)
	}
}

// powered counts each socket's cores that are not gated.
func powered(s *Server) []int {
	out := make([]int, s.Sockets())
	for si := range out {
		c := s.Chip(si)
		for i := 0; i < c.Cores(); i++ {
			if c.Core(i).State() != power.Gated {
				out[si]++
			}
		}
	}
	return out
}

// TestGateUnloadedCoresPerSocket: with eight cores kept powered,
// GateUnloadedCores gives Fig. 12's counts for n = 1..8 threads:
// consolidation powers eight cores on socket 0, borrowing four on each.
// Sixteen cores on powers every core. On an empty server, an odd count
// spread across the sockets puts the extra core on the lower index.
func TestGateUnloadedCoresPerSocket(t *testing.T) {
	empty := MustNew(DefaultConfig(5))
	empty.GateUnloadedCores(5, false)
	if got := powered(empty); got[0] != 3 || got[1] != 2 {
		t.Errorf("empty server, 5 on spread: powered %v, want [3 2]", got)
	}
	empty.GateUnloadedCores(5, true)
	if got := powered(empty); got[0] != 5 || got[1] != 0 {
		t.Errorf("empty server, 5 on packed: powered %v, want [5 0]", got)
	}
	d := workload.MustGet("raytrace")
	for n := 1; n <= 8; n++ {
		for _, borrowed := range []bool{false, true} {
			s := MustNew(DefaultConfig(5))
			s.MustSubmit("j", d, layout(s, n, borrowed), 100)
			s.GateUnloadedCores(8, !borrowed)
			want := []int{8, 0}
			if borrowed {
				want = []int{4, 4}
			}
			if got := powered(s); got[0] != want[0] || got[1] != want[1] {
				t.Errorf("n=%d borrowed=%v: powered %v, want %v", n, borrowed, got, want)
			}
			s.GateUnloadedCores(16, !borrowed)
			if got := powered(s); got[0] != 8 || got[1] != 8 {
				t.Errorf("n=%d borrowed=%v: on=16 powered %v, want every core", n, borrowed, got)
			}
		}
	}
}

// TestGateUnloadedCoresRandom checks the rule over random occupancies,
// every on in [0, 16] and both modes: max(on, loaded) cores end up
// powered; spreading leaves a socket that got idle cores at most one
// above any socket with room left; packing never powers a socket 1 core
// while socket 0 has an unloaded core gated.
func TestGateUnloadedCoresRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 31))
	d := workload.MustGet("raytrace")
	s := MustNew(DefaultConfig(5))
	for trial := 0; trial < 200; trial++ {
		s.Reset(5, nil)
		var ps []Placement
		loaded := []int{0, 0}
		for si := 0; si < 2; si++ {
			for core := 0; core < 8; core++ {
				if r.IntN(3) == 0 {
					ps = append(ps, Placement{Socket: si, Core: core})
					loaded[si]++
				}
			}
		}
		if len(ps) > 0 {
			s.MustSubmit("j", d, ps, 100)
		}
		for on := 0; on <= 16; on++ {
			for _, pack := range []bool{false, true} {
				s.GateUnloadedCores(on, pack)
				got := powered(s)
				if want := max(on, len(ps)); got[0]+got[1] != want {
					t.Fatalf("loaded %v on=%d pack=%v: powered %v, want %d in all", loaded, on, pack, got, want)
				}
				for a := range got {
					for b := range got {
						if !pack && got[a] > loaded[a] && got[b] < 8 && got[a] > got[b]+1 {
							t.Fatalf("loaded %v on=%d: spread powered %v", loaded, on, got)
						}
					}
				}
				if pack && got[1] > loaded[1] && got[0] < 8 {
					t.Fatalf("loaded %v on=%d: packed powered %v with socket 0 cores gated", loaded, on, got)
				}
			}
		}
	}
}

func TestMemoryContentionReliefFromSplitting(t *testing.T) {
	// Fig. 14 right edge: bandwidth-heavy radix roughly doubles throughput
	// when split across sockets.
	d := workload.MustGet("radix")

	cons := MustNew(DefaultConfig(6))
	cons.MustSubmit("j", d, layout(cons, 8, false), d.WorkGInst)
	cons.SetMode(firmware.Static)
	tCons, done := cons.RunUntilDone(300)
	if !done {
		t.Fatal("consolidated radix did not finish")
	}

	split := MustNew(DefaultConfig(6))
	split.MustSubmit("j", d, layout(split, 8, true), d.WorkGInst)
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
	cons.MustSubmit("j", d, layout(cons, 8, false), d.WorkGInst)
	cons.SetMode(firmware.Static)
	tCons, done := cons.RunUntilDone(300)
	if !done {
		t.Fatal("consolidated lu_ncb did not finish")
	}

	split := MustNew(DefaultConfig(7))
	split.MustSubmit("j", d, layout(split, 8, true), d.WorkGInst)
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
		s.MustSubmit("j", d, layout(s, 8, borrowed), 1e9)
		s.GateUnloadedCores(0, !borrowed)
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
	sBorr.MustSubmit("j", workload.MustGet("raytrace"), layout(sBorr, 8, true), 1e9)
	sBorr.SetMode(firmware.Undervolt)
	sBorr.Settle(3)
	sCons := MustNew(DefaultConfig(8))
	sCons.MustSubmit("j", workload.MustGet("raytrace"), layout(sCons, 8, false), 1e9)
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
	s.MustSubmit("j", d, layout(s, 4, false), 1e9)
	s.GateUnloadedCores(8, true)
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
	s.MustSubmit("j", d, layout(s, 1, false), 1e6) // absurdly large
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
	s.MustSubmit("j", d, layout(s, 1, false), 1e9)
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
	s.MustSubmit("j", d, layout(s, 8, false), 1e9)
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
