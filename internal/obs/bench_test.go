package obs

import (
	"fmt"
	"testing"

	"agsim/internal/tsdb"
)

// BenchmarkRecorderSnapshot scrapes benchSnapshotTree's fleet-shaped
// recorder tree: the rows and the folded series, with the rings counted
// but not read.
func BenchmarkRecorderSnapshot(b *testing.B) {
	root := benchSnapshotTree()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lg := root.Snapshot(); lg.EventsKept != 64*256 {
			b.Fatalf("counted %d kept events", lg.EventsKept)
		}
	}
}

// BenchmarkRecorderSnapshotWithEvents is the explicit event reader over
// the same tree: the scrape plus a merge of the 64 wrapped rings, ties at
// every stamp, into one 16,384-event log.
func BenchmarkRecorderSnapshotWithEvents(b *testing.B) {
	root := benchSnapshotTree()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lg := root.SnapshotWithEvents(); len(lg.Events) != 64*256 {
			b.Fatalf("merged %d events", len(lg.Events))
		}
	}
}

// BenchmarkEmit appends to a wrapped ring, the steady state of a long
// run's recorder.
func BenchmarkEmit(b *testing.B) {
	r := New("emit", 256)
	src := r.Source("chip")
	ev := Event{Kind: KindWindow, Source: src, Core: -1}
	for i := 0; i < 256; i++ {
		r.Emit(ev)
	}
	b.ReportAllocs()
	for b.Loop() {
		ev.TimeUS += 32_000
		r.Emit(ev)
	}
}

// benchSnapshotTree builds a fleet-shaped recorder tree: 64 node shards,
// each with 8 CompactSpec series holding 3 s of 1 ms samples and a
// wrapped 256-event ring whose stamps fall on a grid shared by every
// shard, so the merge breaks ties across shards at every stamp.
func benchSnapshotTree() *Recorder {
	root := New("bench", 256)
	root.EnableTimeSeries(tsdb.CompactSpec())
	for n := 0; n < 64; n++ {
		sh := root.Shard(fmt.Sprintf("node%04d", n))
		src := sh.Source("chip")
		series := make([]*tsdb.Series, 8)
		for k := range series {
			series[k] = sh.Series(src, fmt.Sprintf("metric%d", k))
		}
		for tUS := int64(1000); tUS <= 3_000_000; tUS += 1000 {
			for k, s := range series {
				s.Push(tUS, float64(n+k)+float64(tUS%7000)/1000)
			}
		}
		for i := 0; i < 600; i++ {
			sh.Emit(Event{TimeUS: int64(i) * 4000, Kind: KindWindow, Source: src, Core: -1, A: float64(n)})
		}
	}
	return root
}
