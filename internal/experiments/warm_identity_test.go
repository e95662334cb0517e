package experiments

import (
	"reflect"
	"testing"
)

// Options.WarmStart's contract: bit-identical Reports, flag on or off.
// Every registered experiment runs three times per lane — cold reference,
// warm priming run (cache misses, settles and snapshots), warm reuse run
// (cache hits, restores) — and all three must match exactly. The warm
// runs share the process-wide cache across parallel subtests on purpose:
// keys carry the shape key, point tag, seed, settle span and recorder
// fingerprint, so cross-experiment reuse is part of the contract under
// test, not interference.

func TestWarmStartExperimentsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered experiment across the lane matrix")
	}
	lanes := []struct {
		name    string
		exact   bool
		workers int
	}{
		{"macro_w1", false, 1},
		{"macro_w4", false, 4},
		{"exact_w4", true, 4},
	}
	// Under the race detector the full registry does not fit the package
	// timeout; a chip-sweep + server-driver pair still exercises the
	// concurrency under test (parallel subtests sharing the warm cache),
	// and the unraced run keeps the exhaustive numeric pin.
	reg := Registry()
	if raceDetector {
		var subset []Experiment
		for _, e := range reg {
			if e.ID == "fig3" || e.ID == "fig16" {
				subset = append(subset, e)
			}
		}
		reg = subset
	}
	for _, e := range reg {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			for _, lane := range lanes {
				cold := optsWithWorkers(lane.workers)
				cold.Exact = lane.exact
				warm := cold
				warm.WarmStart = true
				want := e.Run(cold)
				prime := e.Run(warm)
				hit := e.Run(warm)
				if !reflect.DeepEqual(want, prime) {
					t.Errorf("%s: warm priming run diverged from cold:\ncold: %+v\nwarm: %+v", lane.name, want, prime)
				}
				if !reflect.DeepEqual(want, hit) {
					t.Errorf("%s: warm cache-hit run diverged from cold:\ncold: %+v\nwarm: %+v", lane.name, want, hit)
				}
			}
		})
	}
}

// TestWarmStartLaneMatrix pins the warm contract on the drivers whose
// settle paths diverge most from the plain chip sweep: the datacenter
// sweep (cluster settle, per-server naive settles, the sampled governor)
// and the QoS driver (server settles under open-loop traffic). Each cell
// compares cold vs warm-primed vs warm-hit.
func TestWarmStartLaneMatrix(t *testing.T) {
	cases := []struct {
		name    string
		sampled bool
		workers int
	}{
		{"scalar_w1", false, 1},
		{"scalar_w4", false, 4},
		{"sampled_w1", true, 1},
	}
	run := func(o Options) [2]Report {
		var out [2]Report
		for _, e := range Registry() {
			switch e.ID {
			case "ext-datacenter":
				out[0] = e.Run(o)
			case "websearch-qos":
				out[1] = e.Run(o)
			}
		}
		return out
	}
	if raceDetector {
		// The most concurrent cell (4 workers) carries the race coverage;
		// the unraced run keeps the full matrix.
		cases = cases[1:2]
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			o := QuickOptions()
			o.Sampled = tc.sampled
			o.Workers = tc.workers
			w := o
			w.WarmStart = true
			want := run(o)
			prime := run(w)
			hit := run(w)
			if !reflect.DeepEqual(want, prime) {
				t.Errorf("warm priming run diverged from cold:\ncold: %+v\nwarm: %+v", want, prime)
			}
			if !reflect.DeepEqual(want, hit) {
				t.Errorf("warm cache-hit run diverged from cold:\ncold: %+v\nwarm: %+v", want, hit)
			}
		})
	}
}

// TestWarmCacheCounters checks the cache observably does its job: a warm
// run after ResetWarmCache misses then hits, and entries stay bounded.
func TestWarmCacheCounters(t *testing.T) {
	ResetWarmCache()
	defer ResetWarmCache()
	o := QuickOptions()
	o.WarmStart = true
	Fig03CoreScaling(o)
	s1 := WarmCacheStats()
	if s1.Misses == 0 || s1.Entries == 0 || s1.Bytes == 0 {
		t.Fatalf("priming run did not populate the cache: %+v", s1)
	}
	Fig03CoreScaling(o)
	s2 := WarmCacheStats()
	if s2.Hits < s1.Misses {
		t.Errorf("reuse run should hit every primed key: %+v -> %+v", s1, s2)
	}
	if s2.Entries != s1.Entries {
		t.Errorf("reuse run should not add entries: %+v -> %+v", s1, s2)
	}
}
