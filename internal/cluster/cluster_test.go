package cluster

import (
	"math"
	"reflect"
	"testing"

	"agsim/internal/firmware"
	"agsim/internal/server"
	"agsim/internal/workload"
)

func newCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := New(nodes, server.DefaultConfig(61))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, server.DefaultConfig(1)); err == nil {
		t.Error("expected error for zero nodes")
	}
}

// at abbreviates a placement so the golden table below stays readable.
func at(socket, core int) server.Placement {
	return server.Placement{Socket: socket, Core: core}
}

// TestConsolidateFirstGolden pins Submit's exact decisions — node choice
// and per-thread placements — over a submission sequence that exercises
// every branch: balanced cross-socket spread, sharing-heavy single-socket
// packing, consolidation onto the most-loaded fitting node, waking a
// suspended node only when nothing powered fits, and returning to a
// powered node once capacity frees up. Submit must never silently change
// this behavior: it is the baseline every experiment's numbers rest on.
func TestConsolidateFirstGolden(t *testing.T) {
	c := MustNew(3, server.DefaultConfig(42))
	spread := workload.MustGet("raytrace")
	packed := spread
	packed.Sharing = 0.99 // >= 0.6 defeats borrowing: stay on one socket

	golden := []struct {
		id         string
		sharing    bool
		threads    int
		node       int
		placements []server.Placement
	}{
		{"j0", false, 4, 0, []server.Placement{at(0, 0), at(1, 0), at(0, 1), at(1, 1)}},
		{"j1", true, 6, 0, []server.Placement{at(0, 2), at(0, 3), at(0, 4), at(0, 5), at(0, 6), at(0, 7)}},
		{"j2", false, 3, 0, []server.Placement{at(1, 2), at(1, 3), at(1, 4)}},
		{"j3", true, 5, 1, []server.Placement{at(0, 0), at(0, 1), at(0, 2), at(0, 3), at(0, 4)}},
		{"j4", false, 4, 1, []server.Placement{at(1, 0), at(1, 1), at(1, 2), at(1, 3)}},
		{"j5", true, 2, 0, []server.Placement{at(1, 5), at(1, 6)}},
	}
	for _, g := range golden {
		d := spread
		if g.sharing {
			d = packed
		}
		node, err := c.Submit(g.id, d, g.threads, 1e9)
		if err != nil {
			t.Fatalf("%s: %v", g.id, err)
		}
		if node != g.node {
			t.Fatalf("%s placed on node %d, golden %d", g.id, node, g.node)
		}
		j := c.nodes[node].jobs[g.id]
		if !reflect.DeepEqual(j.Placements, g.placements) {
			t.Fatalf("%s placements %v, golden %v", g.id, j.Placements, g.placements)
		}
	}
	// Node 2 was never needed: consolidation kept it suspended.
	if c.nodes[2].on {
		t.Fatal("consolidation woke node 2 unnecessarily")
	}
}

func TestConsolidationFirstAcrossNodes(t *testing.T) {
	c := newCluster(t, 3)
	d := workload.MustGet("swaptions")
	n1, err := c.Submit("a", d, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := c.Submit("b", d, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Errorf("second job went to node %d, want consolidation on node %d", n2, n1)
	}
	if c.PoweredNodes() != 1 {
		t.Errorf("powered nodes = %d, want 1", c.PoweredNodes())
	}
	// A third job that does not fit wakes a second node.
	n3, err := c.Submit("c", d, 12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n3 == n1 {
		t.Error("oversized job placed on the full node")
	}
	if c.PoweredNodes() != 2 {
		t.Errorf("powered nodes = %d, want 2", c.PoweredNodes())
	}
}

func TestBorrowingWithinNode(t *testing.T) {
	c := newCluster(t, 1)
	d := workload.MustGet("raytrace") // low sharing: should spread
	if _, err := c.Submit("a", d, 6, 100); err != nil {
		t.Fatal(err)
	}
	srv := c.Node(0).Server()
	a0 := srv.Chip(0).ActiveCores()
	a1 := srv.Chip(1).ActiveCores()
	if a0+a1 != 6 {
		t.Fatalf("active cores = %d+%d", a0, a1)
	}
	if diff := a0 - a1; diff < -1 || diff > 1 {
		t.Errorf("borrowing imbalance: %d vs %d", a0, a1)
	}
}

func TestSharingHeavyJobStaysOnOneSocket(t *testing.T) {
	c := newCluster(t, 1)
	d := workload.MustGet("lu_ncb") // sharing-heavy: keep consolidated
	if _, err := c.Submit("a", d, 6, 100); err != nil {
		t.Fatal(err)
	}
	srv := c.Node(0).Server()
	a0 := srv.Chip(0).ActiveCores()
	a1 := srv.Chip(1).ActiveCores()
	if a0 != 6 && a1 != 6 {
		t.Errorf("sharing-heavy job split %d/%d, want single socket", a0, a1)
	}
}

func TestSharingHeavyJobSpreadsOnlyWhenForced(t *testing.T) {
	c := newCluster(t, 1)
	filler := workload.MustGet("swaptions")
	if _, err := c.Submit("fill", filler, 5, 100); err != nil {
		t.Fatal(err)
	}
	// 11 cores left, at most 6 free on one socket: a 7-thread sharing
	// job must spread, but still be admitted.
	d := workload.MustGet("radiosity")
	if _, err := c.Submit("big", d, 7, 100); err != nil {
		t.Fatal(err)
	}
	if jobs := len(c.nodes[0].jobs); jobs != 2 {
		t.Errorf("jobs = %d", jobs)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	c := newCluster(t, 2)
	d := workload.MustGet("mcf")
	for i, id := range []string{"a", "b"} {
		if _, err := c.Submit(id, d, 16, 100); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if _, err := c.Submit("overflow", d, 1, 100); err == nil {
		t.Error("expected capacity error")
	}
	if _, err := c.Submit("zero", d, 0, 100); err == nil {
		t.Error("expected thread-count error")
	}
}

func TestReleaseSuspendsEmptyNode(t *testing.T) {
	c := newCluster(t, 2)
	d := workload.MustGet("swaptions")
	if _, err := c.Submit("a", d, 4, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.Release("a"); err != nil {
		t.Fatal(err)
	}
	if c.PoweredNodes() != 0 {
		t.Errorf("powered nodes after release = %d", c.PoweredNodes())
	}
	if err := c.Release("a"); err == nil {
		t.Error("double release should fail")
	}
	// Suspended cluster draws only the suspended floors.
	if got, want := float64(c.TotalPower()), 2.0*SuspendedW; got != want {
		t.Errorf("suspended power = %v, want %v", got, want)
	}
}

// TestRefusedSubmitLeavesNodesSuspended holds a refused job to no side
// effect: a job with no positive work must not wake a suspended node, so
// the cluster still charges only the suspended floors, and the next job
// lands as it would on a fresh cluster.
func TestRefusedSubmitLeavesNodesSuspended(t *testing.T) {
	c := newCluster(t, 2)
	d := workload.MustGet("raytrace")
	for _, work := range []float64{0, -1, math.NaN()} {
		if _, err := c.Submit("x", d, 2, work); err == nil {
			t.Fatalf("work %v: Submit accepted a job with no positive work", work)
		}
		if got := c.PoweredNodes(); got != 0 {
			t.Errorf("work %v: %d nodes powered after a refused submit", work, got)
		}
		if got, want := float64(c.TotalPower()), 2.0*SuspendedW; got != want {
			t.Errorf("work %v: power after a refused submit = %v W, want the suspended floors %v W", work, got, want)
		}
	}
	if node, err := c.Submit("x", d, 2, 1e6); err != nil || node != 0 {
		t.Fatalf("Submit after refusals = node %d, %v; want node 0", node, err)
	}
}

// TestSubmitRefusesLiveID holds a job id to one live job: a second Submit
// under a live id must fail and leave the first job placed and tracked,
// so one Release frees it and suspends its node; a released id may be
// submitted again.
func TestSubmitRefusesLiveID(t *testing.T) {
	c := newCluster(t, 2)
	d := workload.MustGet("raytrace")
	if _, err := c.Submit("a", d, 4, 1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("a", d, 4, 1e6); err == nil {
		t.Fatal("Submit accepted a second job under the live id a")
	}
	n := c.Node(0)
	if got := n.loadedCores(); got != 4 {
		t.Errorf("node 0 has %d loaded cores after the refused submit, want the first job's 4", got)
	}
	if got := n.occupied; got != 4 {
		t.Errorf("node 0 occupancy cache %d after the refused submit, want 4", got)
	}
	if j := n.jobs["a"]; j == nil || len(j.Placements) != 4 {
		t.Fatalf("node 0 tracks job a as %+v, want the first job's 4 placements", j)
	}
	if err := c.Release("a"); err != nil {
		t.Fatal(err)
	}
	if got := c.PoweredNodes(); got != 0 {
		t.Errorf("%d nodes powered after releasing the only job", got)
	}
	if err := c.Release("a"); err == nil {
		t.Error("second Release of a succeeded; one Release must free the job")
	}
	if _, err := c.Submit("a", d, 4, 1e6); err != nil {
		t.Errorf("Submit of a released id: %v", err)
	}
}

func TestPlatformPowerAccounting(t *testing.T) {
	c := newCluster(t, 2)
	d := workload.MustGet("mcf")
	if _, err := c.Submit("a", d, 2, 1e6); err != nil {
		t.Fatal(err)
	}
	c.Settle(1)
	total := float64(c.TotalPower())
	chips := float64(c.Node(0).Server().TotalPower())
	want := chips + PlatformIdleW + SuspendedW
	if total < want-0.01 || total > want+0.01 {
		t.Errorf("total power = %v, want %v", total, want)
	}
}

func TestClusterBeatsNaiveSpreadOnPower(t *testing.T) {
	// The §5.1.1 argument: two 4-thread jobs on ONE node (consolidated
	// across nodes, borrowed within) must beat the same jobs on TWO nodes,
	// because platform power dominates.
	consolidated := newCluster(t, 2)
	d := workload.MustGet("raytrace")
	if _, err := consolidated.Submit("a", d, 4, 1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := consolidated.Submit("b", d, 4, 1e6); err != nil {
		t.Fatal(err)
	}
	consolidated.Settle(2.5)

	// Force the naive spread by using two one-node clusters.
	spread := 0.0
	for i := 0; i < 2; i++ {
		c := newCluster(t, 1)
		if _, err := c.Submit("j", d, 4, 1e6); err != nil {
			t.Fatal(err)
		}
		c.Settle(2.5)
		spread += float64(c.TotalPower())
	}
	if got := float64(consolidated.TotalPower()); got >= spread {
		t.Errorf("consolidated cluster %v W not below naive spread %v W", got, spread)
	}
}

func TestModeAppliesToLateNodes(t *testing.T) {
	c := newCluster(t, 2)
	c.SetMode(firmware.Undervolt)
	d := workload.MustGet("raytrace")
	if _, err := c.Submit("a", d, 8, 1e6); err != nil {
		t.Fatal(err)
	}
	c.Settle(2.5)
	if uv := float64(c.Node(0).Server().Chip(0).UndervoltMV()); uv <= 0 {
		t.Errorf("late-powered node ignored mode: undervolt %v", uv)
	}
	if c.Node(1).Server() != nil {
		t.Error("suspended node exposed a server")
	}
}

// TestOccupiedCacheTracksLoadedCores holds the pick fast path's cached
// occupancy against the ground-truth core walk through a full job
// lifecycle: submits, releases, the release of a finished job, and node
// suspension.
func TestOccupiedCacheTracksLoadedCores(t *testing.T) {
	c := newCluster(t, 3)
	check := func(when string) {
		t.Helper()
		for _, n := range c.nodes {
			if got, want := n.occupied, n.loadedCores(); got != want {
				t.Errorf("%s: node %d occupied cache %d, ground truth %d", when, n.Index, got, want)
			}
		}
	}
	d := workload.MustGet("raytrace")
	if _, err := c.Submit("a", d, 4, 1e6); err != nil {
		t.Fatal(err)
	}
	check("after first submit")
	if _, err := c.Submit("b", d, 6, 1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("c", d, 12, 1e6); err != nil {
		t.Fatal(err)
	}
	check("after filling two nodes")
	if err := c.Release("b"); err != nil {
		t.Fatal(err)
	}
	check("after release")
	if err := c.Release("a"); err != nil {
		t.Fatal(err)
	}
	check("after node suspension")
	tiny := workload.MustGet("coremark")
	if _, err := c.Submit("tiny", tiny, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	c.Settle(1)
	if err := c.Release("tiny"); err != nil {
		t.Fatal(err)
	}
	check("after releasing a finished job")
}

// TestClusterSettleFractionalRemainder is the cluster-level regression for
// the old int(seconds/step) truncation in Settle.
func TestClusterSettleFractionalRemainder(t *testing.T) {
	c := newCluster(t, 1)
	d := workload.MustGet("raytrace")
	if _, err := c.Submit("a", d, 4, 1e6); err != nil {
		t.Fatal(err)
	}
	c.Settle(0.0315)
	if got, want := c.Node(0).Server().Time(), 0.0315; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Settle(0.0315) advanced node time %v s, want %v", got, want)
	}
}

// TestClusterMacroLaneMatchesExact holds the cluster's multi-rate Settle
// against a pure 1 ms twin on power and per-node simulated time.
func TestClusterMacroLaneMatchesExact(t *testing.T) {
	build := func(exact bool) *Cluster {
		cfg := server.DefaultConfig(61)
		cfg.ChipConfig.Exact = exact
		c := MustNew(2, cfg)
		c.SetMode(firmware.Undervolt)
		d := workload.MustGet("raytrace")
		if _, err := c.Submit("a", d, 4, 1e9); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit("b", d, 4, 1e9); err != nil {
			t.Fatal(err)
		}
		return c
	}
	macro, exact := build(false), build(true)
	macro.Settle(2)
	exact.Settle(2)
	mp, ep := float64(macro.TotalPower()), float64(exact.TotalPower())
	if diff := mp - ep; diff > ep*0.005 || diff < -ep*0.005 {
		t.Errorf("macro cluster power %v W, exact %v W (>0.5%% apart)", mp, ep)
	}
	mt, et := macro.Node(0).Server().Time(), exact.Node(0).Server().Time()
	if mt < et-1e-9 || mt > et+1e-9 {
		t.Errorf("macro lane covered %v s, exact %v s", mt, et)
	}
}

// TestClusterNodeIndependentOfNeighbours pins the per-node loop: a node's
// trajectory depends on its own seed and jobs alone, so loading a
// neighbour must not move a single bit of it, even on the macro lane
// where leap boundaries follow each node's own event horizons.
func TestClusterNodeIndependentOfNeighbours(t *testing.T) {
	build := func(neighbour bool) *Cluster {
		c := newCluster(t, 2)
		c.SetMode(firmware.Undervolt)
		if n, err := c.Submit("a", workload.MustGet("raytrace"), 12, 1e9); err != nil || n != 0 {
			t.Fatalf("raytrace job on node %d: %v", n, err)
		}
		if neighbour {
			if n, err := c.Submit("b", workload.MustGet("lu_cb"), 12, 1e9); err != nil || n != 1 {
				t.Fatalf("lu_cb job on node %d, want 1: %v", n, err)
			}
		}
		c.Settle(2)
		return c
	}
	alone, beside := build(false), build(true)
	a, b := alone.Node(0).Server(), beside.Node(0).Server()
	if a.Time() != b.Time() {
		t.Errorf("node 0 time %v alone, %v beside a neighbour", a.Time(), b.Time())
	}
	if a.TotalEnergyJ() != b.TotalEnergyJ() {
		t.Errorf("node 0 energy %v J alone, %v J beside a neighbour", a.TotalEnergyJ(), b.TotalEnergyJ())
	}
	if a.TotalPower() != b.TotalPower() {
		t.Errorf("node 0 power %v alone, %v beside a neighbour", a.TotalPower(), b.TotalPower())
	}
	for si := 0; si < a.Sockets(); si++ {
		ca, cb := a.Chip(si), b.Chip(si)
		if ca.UndervoltMV() != cb.UndervoltMV() {
			t.Errorf("P%d undervolt %v alone, %v beside a neighbour", si, ca.UndervoltMV(), cb.UndervoltMV())
		}
		for core := 0; core < ca.Cores(); core++ {
			if ca.CoreFreq(core) != cb.CoreFreq(core) {
				t.Errorf("P%d core %d at %v alone, %v beside a neighbour", si, core, ca.CoreFreq(core), cb.CoreFreq(core))
			}
		}
	}
}
