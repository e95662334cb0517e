package fleet

import (
	"fmt"
	"math"
	"testing"

	"agsim/internal/server"
	"agsim/internal/workload"
)

// testFleet builds a fleet with one four-thread raytrace job per node.
func testFleet(t testing.TB, nodes, workers, shardNodes int) *Fleet {
	t.Helper()
	f, err := New(Config{
		Nodes:      nodes,
		Template:   server.DefaultConfig(20151205),
		ShardNodes: shardNodes,
		Workers:    workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := workload.MustGet("raytrace")
	for i := 0; i < f.Nodes(); i++ {
		pl := make([]server.Placement, 4)
		for c := range pl {
			pl[c] = server.Placement{Socket: c / 8, Core: c % 8}
		}
		f.Node(i).MustSubmit(fmt.Sprintf("j%d", i), d, pl, 1e9)
	}
	return f
}

// nodeState is one node's observable trajectory endpoint.
type nodeState struct {
	power, mips, energy, time float64
}

func readout(f *Fleet) []nodeState {
	states := make([]nodeState, f.Nodes())
	for i := range states {
		states[i] = nodeState{
			power:  f.NodePower(i),
			mips:   f.NodeMIPS(i),
			energy: f.NodeEnergyJ(i),
			time:   f.Node(i).Time(),
		}
	}
	return states
}

func run(f *Fleet) []nodeState {
	for i := 0; i < 4; i++ {
		f.Advance(0.3)
	}
	f.Advance(1.0)
	states := readout(f)
	f.Close()
	return states
}

// Worker count affects only execution placement, never trajectories.
func TestFleetWorkerInvariance(t *testing.T) {
	ref := run(testFleet(t, 12, 1, 4))
	for _, w := range []int{4, 8} {
		got := run(testFleet(t, 12, w, 4))
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("workers=%d node %d diverged: %+v vs %+v", w, i, ref[i], got[i])
			}
		}
	}
}

// Shard width is an execution detail: node trajectories are private, so
// regrouping nodes into different shards changes nothing.
func TestFleetShardWidthInvariance(t *testing.T) {
	ref := run(testFleet(t, 12, 4, 3))
	for _, width := range []int{1, 4, 12, 64} {
		got := run(testFleet(t, 12, 4, width))
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("shardNodes=%d node %d diverged: %+v vs %+v", width, i, ref[i], got[i])
			}
		}
	}
}

// The shard advance loop must not allocate in steady state (serial path;
// the parallel path adds only the pool fan-out, amortized over a whole
// horizon).
func TestFleetAdvanceZeroAlloc(t *testing.T) {
	f := testFleet(t, 4, 1, 2)
	f.Advance(0.5) // settle the first segments
	allocs := testing.AllocsPerRun(10, func() {
		f.Advance(0.25)
	})
	f.Close()
	if allocs != 0 {
		t.Fatalf("Advance allocates %v per call, want 0", allocs)
	}
}

// Merge-on-read totals equal the node-order fold of per-node reads.
func TestFleetTotalsMatchNodeFold(t *testing.T) {
	f := testFleet(t, 6, 2, 4)
	f.Advance(0.8)
	var power, mips, energy float64
	for i := 0; i < f.Nodes(); i++ {
		power += f.NodePower(i)
		mips += f.NodeMIPS(i)
		energy += f.NodeEnergyJ(i)
	}
	if f.TotalPower() != power || f.TotalMIPS() != mips || f.TotalEnergyJ() != energy {
		t.Fatalf("totals (%v, %v, %v) != folds (%v, %v, %v)",
			f.TotalPower(), f.TotalMIPS(), f.TotalEnergyJ(), power, mips, energy)
	}
	f.Close()
}

// TestAdvancePanicsOnBadHorizon: a horizon that is not positive, NaN
// included, is refused before any node moves.
func TestAdvancePanicsOnBadHorizon(t *testing.T) {
	f := testFleet(t, 2, 1, 1)
	defer f.Close()
	for _, dt := range []float64{0, -0.3, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Advance(%v) did not panic", dt)
				}
			}()
			f.Advance(dt)
		}()
		for i := 0; i < f.Nodes(); i++ {
			if tm := f.Node(i).Time(); tm != 0 {
				t.Fatalf("Advance(%v) moved node %d to %v s", dt, i, tm)
			}
		}
	}
}
