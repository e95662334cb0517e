package experiments

import (
	"reflect"
	"testing"
)

// The acceptance contract: websearch-qos headline stats bit-identical
// across workers 1/4/8.
func TestWebsearchQoSWorkerBitIdentical(t *testing.T) {
	ref := WebsearchQoS(optsWithWorkers(1))
	for _, w := range []int{4, 8} {
		if got := WebsearchQoS(optsWithWorkers(w)); !reflect.DeepEqual(ref, got) {
			t.Errorf("websearch-qos diverged between workers 1 and %d", w)
		}
	}
}

// Sanity on the physics: boost must not lengthen the tail relative to
// static, energy mode must not cost more Joules per query, and the served
// count must be positive with no shedding at sub-saturation loads.
func TestWebsearchQoSPolicyOrdering(t *testing.T) {
	r := WebsearchQoS(QuickOptions())
	if r.QueriesServed <= 0 {
		t.Fatal("no queries served")
	}
	if r.P99BoostSec > r.P99StaticSec*1.001 {
		t.Errorf("ags-boost p99 %.4f s worse than static %.4f s", r.P99BoostSec, r.P99StaticSec)
	}
	if r.JoulesPerQueryEnergy > r.JoulesPerQueryStatic*1.001 {
		t.Errorf("ags-energy J/query %.4f worse than static %.4f",
			r.JoulesPerQueryEnergy, r.JoulesPerQueryStatic)
	}
	if r.EnergySavingPct <= 0 {
		t.Errorf("AGS energy saving %.3f%% not positive", r.EnergySavingPct)
	}
}
