package obs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"agsim/internal/tsdb"
)

// refMergedSeries is the fold-free reference for MergedSeries: copy every
// series' windows per level, in the log's order (shards sorted by name,
// each shard's series in registration order), then MergeWindows the
// copies in that order, the first series of the name setting the spec and
// the level count. It counts the merges that took MergeWindows'
// allocating path.
func refMergedSeries(root *Recorder, name string, allocating *int) (spec tsdb.Spec, levels [][]tsdb.Window, ok bool) {
	for _, sh := range root.walk(nil, "") {
		for _, se := range sh.r.series {
			if se.key.name != name {
				continue
			}
			dump := make([][]tsdb.Window, se.ts.Levels())
			for li := range dump {
				dump[li] = se.ts.AppendWindows(nil, li)
			}
			if !ok {
				ok, spec, levels = true, se.ts.Spec(), make([][]tsdb.Window, len(dump))
			}
			for li := range dump {
				if li >= len(levels) {
					continue
				}
				dst := levels[li]
				levels[li] = tsdb.MergeWindows(dst, dump[li])
				if len(dst) > 0 && len(dump[li]) > 0 && &levels[li][0] != &dst[0] {
					*allocating++
				}
			}
		}
	}
	return spec, levels, ok
}

var foldNames = []string{"power_w", "freq_mhz", "rail_mv", "margin_bits"}

// foldSpec returns a three-level spec cut or extended to n levels.
func foldSpec(n int) tsdb.Spec {
	spec := tsdb.Spec{}
	for i, w := 0, int64(1_000); i < n; i, w = i+1, w*4 {
		spec.Levels = append(spec.Levels, tsdb.LevelSpec{WidthUS: w, Buckets: 8})
	}
	return spec
}

// randomSeriesTree builds a recorder tree of 2–6 shards, created out of
// name order, under a root that may register series of its own. Shards
// may re-enable time series with fewer or more levels than the root's
// three, so a metric's sources can disagree on level count. Each source
// registers a random subset of the metric names in random order and
// pushes 0–40 samples of arbitrary (non-dyadic) values from a random
// start with random gaps, so windows misalign across sources and a
// series with no samples has every level empty.
func randomSeriesTree(rng *rand.Rand) *Recorder {
	root := New("root", 0)
	root.EnableTimeSeries(foldSpec(3))
	recs := []*Recorder{root}
	for i, perm := 0, rng.Perm(20)[:2+rng.Intn(5)]; i < len(perm); i++ {
		sh := root.Shard(fmt.Sprintf("n%02d", perm[i]))
		if rng.Intn(4) == 0 {
			sh.EnableTimeSeries(foldSpec(2 + 2*rng.Intn(2)))
		}
		recs = append(recs, sh)
	}
	for ri, r := range recs {
		if ri == 0 && rng.Intn(2) == 0 {
			continue
		}
		for s, n := 0, 1+rng.Intn(3); s < n; s++ {
			src := r.Source(fmt.Sprintf("chip%d", s))
			for _, k := range rng.Perm(len(foldNames))[:1+rng.Intn(len(foldNames))] {
				ts := r.Series(src, foldNames[k])
				tUS := int64(rng.Intn(50)) * 1_000
				if rng.Intn(3) == 0 {
					tUS += int64(rng.Intn(1_000)) // off the 1 ms grid
				}
				for i, m := 0, rng.Intn(41); i < m; i++ {
					ts.Push(tUS, 100*rng.NormFloat64())
					tUS += 1_000 * int64(1+rng.Intn(3))
				}
			}
		}
	}
	return root
}

// TestSnapshotFoldMatchesReference requires Snapshot's folded view to be
// what the fold-free reference merges, field for field (Sum included, so
// the fold order is pinned), and the inventory to list every series in
// log order with its own spec.
func TestSnapshotFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	allocating := 0
	for trial := 0; trial < 300; trial++ {
		root := randomSeriesTree(rng)
		lg := root.Snapshot()
		for _, name := range append(foldNames, "missing") {
			spec, levels, ok := lg.MergedSeries(name)
			wspec, wlevels, wok := refMergedSeries(root, name, &allocating)
			if ok != wok || !reflect.DeepEqual(spec, wspec) || !reflect.DeepEqual(levels, wlevels) {
				t.Fatalf("trial %d %s: folded view differs from the reference\ngot  %v %v %+v\nwant %v %v %+v",
					trial, name, ok, spec, levels, wok, wspec, wlevels)
			}
		}
		i := 0
		for _, sh := range root.walk(nil, "") {
			for _, se := range sh.r.series {
				d := lg.Series[i]
				if d.Source != sh.prefix+sh.r.sources[se.key.src] || d.Name != se.key.name || !reflect.DeepEqual(d.Spec, se.ts.Spec()) {
					t.Fatalf("trial %d: inventory row %d is %+v, want %s%s %s %v",
						trial, i, d, sh.prefix, sh.r.sources[se.key.src], se.key.name, se.ts.Spec())
				}
				i++
			}
		}
		if i != len(lg.Series) {
			t.Fatalf("trial %d: inventory has %d rows, the tree %d series", trial, len(lg.Series), i)
		}
	}
	if allocating == 0 {
		t.Fatal("no merge took the allocating path: the trees never misalign")
	}
}

// TestSnapshotFoldOwnsItsData checks the Log shares no storage with the
// recorder, with what MergedSeries handed out, or between the folded view
// and the inventory: changing a returned view's windows or spec, every
// inventory row's spec, or the live series after the Snapshot leaves
// what MergedSeries returns as it was, and the next Snapshot's inventory
// as the recorder's series make it.
func TestSnapshotFoldOwnsItsData(t *testing.T) {
	root := randomSeriesTree(rand.New(rand.NewSource(7)))
	lg := root.Snapshot()
	name := lg.Series[0].Name
	spec, want, ok := lg.MergedSeries(name)
	if !ok || len(want[0]) == 0 {
		t.Fatalf("no windows to check: %v %+v", ok, want)
	}
	wantSpec := tsdb.Spec{Levels: append([]tsdb.LevelSpec(nil), spec.Levels...)}
	gotSpec, got, _ := lg.MergedSeries(name)
	got[0][0].Sum = math.NaN()
	gotSpec.Levels[0].WidthUS = -1
	for i := range lg.Series {
		lg.Series[i].Spec.Levels[0].Buckets = -1
	}
	for _, sh := range root.walk(nil, "") {
		for _, se := range sh.r.series {
			se.ts.Push(1<<40, 1)
		}
	}
	if againSpec, again, _ := lg.MergedSeries(name); !reflect.DeepEqual(again, want) || !reflect.DeepEqual(againSpec, wantSpec) {
		t.Fatalf("the Log's folded view changed under it:\n%v %+v\n%v %+v", againSpec, again, wantSpec, want)
	}
	next := root.Snapshot()
	i := 0
	for _, sh := range root.walk(nil, "") {
		for _, se := range sh.r.series {
			if !reflect.DeepEqual(next.Series[i].Spec, se.ts.Spec()) {
				t.Fatalf("changing an inventory spec reached the recorder: row %d is %v, want %v", i, next.Series[i].Spec, se.ts.Spec())
			}
			i++
		}
	}
}

// TestSnapshotAllocationBound holds Snapshot of BenchmarkRecorderSnapshot's
// tree to 200,000 B, the source and inventory rows and the folded views,
// so neither copies of every source's windows (5.2 MB for this tree) nor
// a merge of its wrapped rings (786,432 B of events) can creep back in.
// It also holds the call to 256 allocations (198 measured): one name per
// source row and a few per shard and metric, none per series, since each
// of the tree's 512 inventory rows reuses its source row's name.
func TestSnapshotAllocationBound(t *testing.T) {
	root := benchSnapshotTree()
	root.Snapshot()
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		root.Snapshot()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 200_000 {
		t.Fatalf("Snapshot allocates %d B per call, want at most 200,000", per)
	}
	if per := (after.Mallocs - before.Mallocs) / runs; per > 256 {
		t.Fatalf("Snapshot makes %d allocations per call, want at most 256", per)
	}
}
