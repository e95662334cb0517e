package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"agsim/internal/obs"
	"agsim/internal/server"
	"agsim/internal/tsdb"
	"agsim/internal/workload"
)

// telemetryRun drives a telemetry-enabled fleet and returns the merged
// log: the full observation plane — counters, gauges, histograms, the
// event ring (attribution records included), multi-resolution series,
// and per-shard stats — in one snapshot.
func telemetryRun(t *testing.T, workers int) *obs.Log {
	t.Helper()
	rec := obs.New("fleet", 2048)
	rec.EnableTimeSeries(tsdb.DefaultSpec())
	f, err := New(Config{
		Nodes:      8,
		Template:   server.DefaultConfig(20151205),
		ShardNodes: 4,
		Workers:    workers,
		Recorder:   rec,
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
	for i := 0; i < 3; i++ {
		f.Advance(0.4)
	}
	f.Close()
	log := rec.Snapshot()
	return &log
}

// TestFleetTelemetryWorkerInvariance pins the telemetry plane's
// fleet-level determinism contract: the merged log — every series window
// at every resolution, every guardband-attribution record, every shard
// stat — is bit-identical across worker counts. Workers own whole shards
// and every shard owns its recorder subtree, so execution placement can
// never reorder a fold.
func TestFleetTelemetryWorkerInvariance(t *testing.T) {
	ref := telemetryRun(t, 1)

	// The reference run must be non-vacuous.
	if len(ref.Series) == 0 {
		t.Fatal("no series recorded")
	}
	var attribs int
	for _, ev := range ref.Events {
		if ev.Kind == obs.KindAttrib {
			attribs++
		}
	}
	if attribs == 0 {
		t.Fatal("no guardband-attribution events recorded")
	}
	if len(ref.Shards) == 0 {
		t.Fatal("no shard stats recorded")
	}

	for _, w := range []int{4, 8} {
		got := telemetryRun(t, w)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d: merged telemetry log diverged from workers=1 reference", w)
		}
	}
}
