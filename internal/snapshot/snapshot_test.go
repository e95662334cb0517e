package snapshot_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"agsim/internal/chip"
	"agsim/internal/cluster"
	"agsim/internal/firmware"
	"agsim/internal/fleet"
	"agsim/internal/obs"
	"agsim/internal/parallel"
	"agsim/internal/rng"
	"agsim/internal/server"
	"agsim/internal/snapshot"
	"agsim/internal/traffic"
	"agsim/internal/tsdb"
	"agsim/internal/workload"
)

// toy exercises every walker path on a struct the test fully controls:
// aliased pointers, nil-vs-empty slices, maps, interfaces, hooks, funcs.
type toyNode struct {
	ID   int
	Next *toyNode
}

type toy struct {
	I     int64
	U     uint32
	F     float64
	S     string
	B     []byte
	Empty []int
	Nil   []int
	M     map[string]float64
	A     *toyNode
	Alias *toyNode
	Cycle *toyNode
	R     *rng.Source
	Fn    func() int
	Any   any
}

func makeToy(seed uint64) *toy {
	n := &toyNode{ID: 7}
	n.Next = n // cycle
	return &toy{
		I: -42, U: 99, F: 3.5, S: "snap",
		B:     []byte{1, 2, 3},
		Empty: []int{},
		M:     map[string]float64{"a": 1, "b": 2, "c": -0.0},
		A:     n, Alias: n, Cycle: n,
		R:   rng.New(seed, "toy"),
		Fn:  func() int { return 1 },
		Any: &toyNode{ID: 9},
	}
}

func TestToyRoundTrip(t *testing.T) {
	src := makeToy(1)
	src.R.Float64() // advance the stream off its seed position
	src.R.Float64()
	img, err := snapshot.Save(src, snapshot.Meta{Seed: 1, Revision: "test"})
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	dst := makeToy(2)
	meta, err := snapshot.Load(img, dst)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if meta.Seed != 1 || meta.Revision != "test" {
		t.Fatalf("meta round-trip: %+v", meta)
	}
	if dst.I != src.I || dst.U != src.U || dst.F != src.F || dst.S != src.S {
		t.Fatalf("scalars diverge: %+v vs %+v", dst, src)
	}
	if !bytes.Equal(dst.B, src.B) || dst.Empty == nil || len(dst.Empty) != 0 || dst.Nil != nil {
		t.Fatalf("slice shapes diverge: %+v", dst)
	}
	if !reflect.DeepEqual(dst.M, src.M) {
		t.Fatalf("map diverges: %v vs %v", dst.M, src.M)
	}
	if dst.A != dst.Alias || dst.A != dst.Cycle || dst.A.Next != dst.A || dst.A.ID != 7 {
		t.Fatalf("aliasing/cycle not preserved: %+v", dst)
	}
	if dst.Fn == nil || dst.Fn() != 1 {
		t.Fatalf("func field should keep the target's value")
	}
	if got, want := dst.R.Float64(), src.R.Float64(); got != want {
		t.Fatalf("rng stream position diverges: %v vs %v", got, want)
	}
	// Save→Load→Save byte identity.
	img2, err := snapshot.Save(dst, snapshot.Meta{Seed: 1, Revision: "test"})
	if err != nil {
		t.Fatalf("re-save: %v", err)
	}
	// The rng advanced one draw above on both sides; identical state.
	img1, _ := snapshot.Save(src, snapshot.Meta{Seed: 1, Revision: "test"})
	if !bytes.Equal(img1, img2) {
		t.Fatalf("save→load→save not byte-identical: %d vs %d bytes", len(img1), len(img2))
	}
}

// nestedMaps holds maps whose values hold maps, two levels deep, so an
// inner map sorts its entries while its outer map's are still waiting to
// be written.
type nestedMaps struct {
	Outer map[string]*nestedInner
	Grid  map[int32]map[string]float64
}

type nestedInner struct {
	Vals map[uint16]float64
	Tags map[string]map[uint8]bool
}

// makeNestedMaps fills the maps, inserting keys in the order perm, a
// permutation of 0..len(perm)-1, gives, so two calls hold equal maps
// built in different orders.
func makeNestedMaps(perm []int) *nestedMaps {
	// below lists 0..m-1 in perm's order.
	below := func(m int) []int {
		var out []int
		for _, j := range perm {
			if j < m {
				out = append(out, j)
			}
		}
		return out
	}
	m := &nestedMaps{Outer: map[string]*nestedInner{}, Grid: map[int32]map[string]float64{}}
	for _, i := range perm {
		in := &nestedInner{Vals: map[uint16]float64{}, Tags: map[string]map[uint8]bool{}}
		for _, j := range below(1 + i) {
			in.Vals[uint16(j*37+i)] = float64(i) + float64(j)/8
		}
		for _, j := range below(i % 4) {
			tags := map[uint8]bool{}
			for _, k := range below(1 + j%6) {
				tags[uint8(k)] = (i+j+k)%2 == 0
			}
			in.Tags[fmt.Sprintf("t%d", j)] = tags
		}
		m.Outer[fmt.Sprintf("node%02d", i)] = in
		row := map[string]float64{}
		for _, j := range below(i) {
			row[fmt.Sprintf("c%d", j)] = float64(i * j)
		}
		m.Grid[int32(i)-int32(len(perm)/2)] = row
	}
	return m
}

// TestNestedMapsRoundTrip requires maps nested in map values to image
// independently of insertion order and to restore to equal maps: an inner
// map that overwrote its outer map's pending entries or keys would pair
// the outer keys with the wrong values.
func TestNestedMapsRoundTrip(t *testing.T) {
	const n = 24
	r := rand.New(rand.NewPCG(13, 0))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	want := makeNestedMaps(order)
	img, err := snapshot.Save(want, snapshot.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		again, err := snapshot.Save(makeNestedMaps(r.Perm(n)), snapshot.Meta{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, img) {
			t.Fatalf("trial %d: equal nested maps built in another order image differently", trial)
		}
	}
	got := &nestedMaps{}
	if _, err := snapshot.Load(img, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("nested maps restored differently:\ngot  %+v\nwant %+v", got, want)
	}
	if back, err := snapshot.Save(got, snapshot.Meta{}); err != nil || !bytes.Equal(back, img) {
		t.Fatalf("restored nested maps image differently (err %v)", err)
	}
}

func TestCorruptImagesRejected(t *testing.T) {
	img, err := snapshot.Save(makeToy(1), snapshot.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	flip := append([]byte(nil), img...)
	flip[len(flip)-10] ^= 0xff
	if _, err := snapshot.Load(flip, makeToy(1)); err == nil {
		t.Fatalf("corrupt payload accepted")
	}
	if _, err := snapshot.Load(img[:20], makeToy(1)); err == nil {
		t.Fatalf("truncated image accepted")
	}
	if _, err := snapshot.Load([]byte("not a snapshot"), makeToy(1)); err == nil {
		t.Fatalf("garbage accepted")
	}
	wrongVer := append([]byte(nil), img...)
	wrongVer[len(magicLen())] ^= 0x7f // format-version byte
	if _, err := snapshot.Load(wrongVer, makeToy(1)); err == nil {
		t.Fatalf("format-version skew accepted")
	}
}

func magicLen() string { return "agsnap\n" }

func testChip(seed uint64, rec *obs.Recorder) *chip.Chip {
	return laneChip(seed, rec, false, firmware.Undervolt)
}

// laneChip builds the test chip on the exact or the macro step lane and
// puts it in the given guardband mode.
func laneChip(seed uint64, rec *obs.Recorder, exact bool, mode firmware.Mode) *chip.Chip {
	cfg := chip.DefaultConfig("P0", seed)
	cfg.Recorder = rec
	cfg.Exact = exact
	c := chip.MustNew(cfg)
	d := workload.MustGet("swaptions")
	for i := 0; i < 4; i++ {
		c.Place(i, workload.NewThread(d, 1e9, nil))
	}
	c.SetMode(mode)
	return c
}

// stepTrace advances the chip over spanSec and fingerprints the sensor
// sequence the firmware acts on.
func stepTrace(c *chip.Chip, spanSec float64) string {
	var sb strings.Builder
	for remaining := spanSec; remaining > 1e-9; {
		dt := c.Advance(remaining)
		remaining -= dt
		fmt.Fprintf(&sb, "%v|%v|%v|%v\n", c.Time(), c.ChipPower(), c.CoreFreq(0), c.UndervoltMV())
	}
	return sb.String()
}

// TestChipRestoreThenStepIdentity restores a settled chip and steps it
// beside the original on both step lanes and in every guardband mode.
// The sensor trace alone can miss restored state the span does not read
// back, such as RNG stream positions, so the two chips' images must also
// match after the span.
func TestChipRestoreThenStepIdentity(t *testing.T) {
	for _, exact := range []bool{false, true} {
		for _, mode := range []firmware.Mode{firmware.Static, firmware.Undervolt, firmware.Overclock, firmware.Manual} {
			t.Run(fmt.Sprintf("exact=%v/%v", exact, mode), func(t *testing.T) {
				orig := laneChip(11, nil, exact, mode)
				orig.Settle(0.8)
				img, err := snapshot.Save(orig, snapshot.Meta{Seed: 11})
				if err != nil {
					t.Fatalf("save chip: %v", err)
				}
				restored := laneChip(11, nil, exact, mode)
				if _, err := snapshot.Load(img, restored); err != nil {
					t.Fatalf("load chip: %v", err)
				}
				if got, want := stepTrace(restored, 0.5), stepTrace(orig, 0.5); got != want {
					t.Fatalf("restored chip step trace diverges from original:\n%s\nvs\n%s", got[:120], want[:120])
				}
				want, err := snapshot.Save(orig, snapshot.Meta{Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				got, err := snapshot.Save(restored, snapshot.Meta{Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("restored chip's image diverges after stepping (%d vs %d bytes)", len(got), len(want))
				}
			})
		}
	}
}

func TestChipSaveLoadSaveByteIdentity(t *testing.T) {
	orig := testChip(13, nil)
	orig.Settle(0.6)
	img, err := snapshot.Save(orig, snapshot.Meta{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	restored := testChip(13, nil)
	if _, err := snapshot.Load(img, restored); err != nil {
		t.Fatal(err)
	}
	img2, err := snapshot.Save(restored, snapshot.Meta{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, img2) {
		t.Fatalf("chip save→load→save not byte-identical: %d vs %d bytes", len(img), len(img2))
	}
}

// TestChipShapeMismatchRejected refuses targets built from another shape:
// a mesh PDN, or another V–f law for the chip or for its CPMs. The image
// carries no law, so the shape key in its header is what keeps a chip
// from restoring onto sensors, DPLLs and a controller that copied a
// different one.
func TestChipShapeMismatchRejected(t *testing.T) {
	orig := testChip(11, nil)
	img, err := snapshot.Save(orig, snapshot.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	law := chip.DefaultConfig("P0", 11)
	law.Law.VNom += 10
	cpmLaw := chip.DefaultConfig("P0", 11)
	cpmLaw.CPM.Law.FCeil -= 100
	for name, cfg := range map[string]chip.Config{
		"mesh":    chip.DefaultConfig("P0", 11).WithMesh(),
		"law":     law,
		"cpm law": cpmLaw,
	} {
		other := chip.MustNew(cfg)
		if _, err := snapshot.Load(img, other); err == nil || !strings.Contains(err.Error(), "shape mismatch") {
			t.Fatalf("%s: want shape mismatch error, got %v", name, err)
		}
	}
}

func TestMeshChipRoundTrip(t *testing.T) {
	cfg := chip.DefaultConfig("P0", 17).WithMesh()
	build := func() *chip.Chip {
		c := chip.MustNew(cfg)
		d := workload.MustGet("fft")
		c.Place(0, workload.NewThread(d, 1e9, nil))
		c.Place(5, workload.NewThread(d, 1e9, nil))
		c.SetMode(firmware.Undervolt)
		return c
	}
	orig := build()
	orig.Settle(0.4)
	img, err := snapshot.Save(orig, snapshot.Meta{})
	if err != nil {
		t.Fatalf("save mesh chip: %v", err)
	}
	restored := build()
	if _, err := snapshot.Load(img, restored); err != nil {
		t.Fatalf("load mesh chip: %v", err)
	}
	if got, want := stepTrace(restored, 0.3), stepTrace(orig, 0.3); got != want {
		t.Fatalf("mesh chip trace diverges after restore")
	}
}

func testServer(seed uint64, rec *obs.Recorder) *server.Server {
	cfg := server.DefaultConfig(seed)
	cfg.Recorder = rec
	s := server.MustNew(cfg)
	d := workload.MustGet("raytrace")
	ps, _ := server.PlaceOnFree(s.FreeCores(nil), 6, true)
	s.MustSubmit("j", d, ps, 1e9)
	s.SetMode(firmware.Undervolt)
	return s
}

func serverTrace(s *server.Server, spanSec float64) string {
	var sb strings.Builder
	for remaining := spanSec; remaining > 1e-9; {
		dt := s.Advance(remaining)
		remaining -= dt
		fmt.Fprintf(&sb, "%v|%v|%v\n", s.Time(), s.TotalPower(), s.Chip(0).UndervoltMV())
	}
	return sb.String()
}

func TestServerWithRecorderRestoreIdentity(t *testing.T) {
	build := func() (*server.Server, *obs.Recorder) {
		root := obs.New("root", 256)
		root.EnableTimeSeries(tsdb.CompactSpec())
		return testServer(23, root.Shard("srv")), root
	}
	orig, origRec := build()
	orig.Settle(0.7)
	img, err := snapshot.Save(orig, snapshot.Meta{Seed: 23})
	if err != nil {
		t.Fatalf("save server: %v", err)
	}
	restored, restRec := build()
	if _, err := snapshot.Load(img, restored); err != nil {
		t.Fatalf("load server: %v", err)
	}
	if got, want := serverTrace(restored, 0.4), serverTrace(orig, 0.4); got != want {
		t.Fatalf("restored server trace diverges")
	}
	// The restored recorder tree (reached through the server's shard) must
	// merge identically to the original's: counters, events, the series
	// folded across sockets. A Snapshot keeps no per-socket windows, so
	// the trees' images, which hold every series ring, must match too.
	if !reflect.DeepEqual(restRec.SnapshotWithEvents(), origRec.SnapshotWithEvents()) {
		t.Fatalf("merged recorder snapshots diverge after restore")
	}
	origImg, err := snapshot.Save(origRec, snapshot.Meta{})
	if err != nil {
		t.Fatalf("save recorder: %v", err)
	}
	restImg, err := snapshot.Save(restRec, snapshot.Meta{})
	if err != nil {
		t.Fatalf("save restored recorder: %v", err)
	}
	if !bytes.Equal(restImg, origImg) {
		t.Fatalf("recorder images diverge after restore")
	}
}

func TestClusterRestoreIdentity(t *testing.T) {
	// The subtest keeps the name it had when a batched lane ran beside the
	// scalar one; the scalar lane is the only lane now.
	t.Run("batched=false", func(t *testing.T) {
		build := func() *cluster.Cluster {
			c := cluster.MustNew(3, server.DefaultConfig(31))
			d := workload.MustGet("swaptions")
			for j := 0; j < 4; j++ {
				if _, err := c.Submit(fmt.Sprintf("job%d", j), d, 4, 1e9); err != nil {
					t.Fatalf("submit: %v", err)
				}
			}
			return c
		}
		orig := build()
		orig.Settle(0.3)
		img, err := snapshot.Save(orig, snapshot.Meta{Seed: 31})
		if err != nil {
			t.Fatalf("save cluster: %v", err)
		}
		restored := build()
		if _, err := snapshot.Load(img, restored); err != nil {
			t.Fatalf("load cluster: %v", err)
		}
		again, err := snapshot.Save(restored, snapshot.Meta{Seed: 31})
		if err != nil {
			t.Fatalf("save restored cluster: %v", err)
		}
		if !bytes.Equal(again, img) {
			t.Fatalf("Save(Load(img)) differs from img (%d vs %d bytes)", len(again), len(img))
		}
		for i := 0; i < 12; i++ {
			orig.Settle(0.05)
			restored.Settle(0.05)
			if got, want := restored.TotalPower(), orig.TotalPower(); got != want {
				t.Fatalf("settle %d: cluster power diverges: %v vs %v", i, got, want)
			}
		}
	})
}

func TestTrafficGeneratorRestoreIdentity(t *testing.T) {
	pool := parallel.NewPool(1)
	caps := make([]float64, 4)
	for i := range caps {
		caps[i] = 40_000
	}
	build := func() *traffic.Generator {
		return traffic.New(traffic.DefaultConfig(4, 41))
	}
	orig := build()
	for i := 0; i < 20; i++ {
		orig.Epoch(pool, 0.032, caps)
	}
	img, err := snapshot.Save(orig, snapshot.Meta{Seed: 41})
	if err != nil {
		t.Fatalf("save traffic: %v", err)
	}
	restored := build()
	if _, err := snapshot.Load(img, restored); err != nil {
		t.Fatalf("load traffic: %v", err)
	}
	for i := 0; i < 20; i++ {
		orig.Epoch(pool, 0.032, caps)
		restored.Epoch(pool, 0.032, caps)
	}
	if got, want := restored.Latency(), orig.Latency(); !reflect.DeepEqual(got, want) {
		t.Fatalf("traffic latency summary diverges: %+v vs %+v", got, want)
	}
	for i := 0; i < 4; i++ {
		if got, want := restored.NodeSnapshot(i), orig.NodeSnapshot(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d snapshot diverges", i)
		}
	}
}

func TestFleetRestoreIdentity(t *testing.T) {
	// The subtest keeps the name it had when a batched lane ran beside the
	// scalar one; the scalar lane is the only lane now.
	t.Run("batched=false", func(t *testing.T) {
		build := func() *fleet.Fleet {
			f := fleet.MustNew(fleet.Config{
				Nodes:      6,
				Template:   server.DefaultConfig(47),
				ShardNodes: 2,
				Workers:    2,
			})
			d := workload.MustGet("swaptions")
			f.ForEachNode(func(i int, s *server.Server) {
				ps, _ := server.PlaceOnFree(s.FreeCores(nil), 4, true)
				s.MustSubmit("j", d, ps, 1e9)
				s.SetMode(firmware.Undervolt)
			})
			return f
		}
		orig := build()
		orig.Advance(0.3)
		img, err := snapshot.Save(orig, snapshot.Meta{Seed: 47})
		if err != nil {
			t.Fatalf("save fleet: %v", err)
		}
		restored := build()
		if _, err := snapshot.Load(img, restored); err != nil {
			t.Fatalf("load fleet: %v", err)
		}
		for i := 0; i < 8; i++ {
			orig.Advance(0.05)
			restored.Advance(0.05)
			if got, want := restored.TotalPower(), orig.TotalPower(); got != want {
				t.Fatalf("advance %d: fleet power diverges: %v vs %v", i, got, want)
			}
		}
		orig.Close()
		restored.Close()
	})
}

// TestServePairRestoreIdentity restores the checkpoint shape a serving run
// takes — a fleet and its request generator imaged together under one
// struct root — and requires the restored pair to serve on exactly as the
// original does: after more epochs on both, their images match byte for
// byte and their latency summaries agree.
func TestServePairRestoreIdentity(t *testing.T) {
	orig := settledServePair(9)
	defer orig.F.Close()
	img, err := snapshot.Save(orig, snapshot.Meta{Seed: 9})
	if err != nil {
		t.Fatalf("save serve pair: %v", err)
	}
	restored := newServePair(8, 9)
	defer restored.F.Close()
	if _, err := snapshot.Load(img, restored); err != nil {
		t.Fatalf("load serve pair: %v", err)
	}
	orig.serve(6, 0.25)
	restored.serve(6, 0.25)
	want, err := snapshot.Save(orig, snapshot.Meta{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.Save(restored, snapshot.Meta{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restored pair's image diverges after serving (%d vs %d bytes)", len(got), len(want))
	}
	lat := orig.G.Latency()
	if lat.Completed == 0 {
		t.Fatal("no requests completed: the comparison is vacuous")
	}
	if rl := restored.G.Latency(); rl != lat {
		t.Fatalf("latency summaries diverge: restored %+v, original %+v", rl, lat)
	}
}

// TestPartlyFilledRingRestore images a series none of whose levels has
// wrapped, restores it into a fresh series of the same spec, and drives
// the two through one random Push and Fill sequence until every level has
// wrapped: both must report their full spec while partly filled, after
// every call each level's windows must agree, and at the end the two
// images must be byte-identical. A ring images only the windows it has
// opened (after one empty slot at index 0, which its first window skips),
// so the first image must be smaller than the wrapped one's by at least
// an empty window's 35 bytes (three one-byte varints and four floats) for
// every other window it had not opened.
func TestPartlyFilledRingRestore(t *testing.T) {
	spec := tsdb.Spec{Levels: []tsdb.LevelSpec{
		{WidthUS: 1_000, Buckets: 8},
		{WidthUS: 4_000, Buckets: 8},
		{WidthUS: 16_000, Buckets: 8},
	}}
	r := rand.New(rand.NewPCG(25, 6))
	orig := tsdb.NewSeries("ring", spec)
	var tUS int64
	for tUS < 5_000 {
		orig.Push(tUS, float64(r.IntN(1<<10))/8)
		tUS += 1 + r.Int64N(900)
	}
	first, err := snapshot.Save(orig, snapshot.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	unopened := 0
	for li, ls := range spec.Levels {
		live := len(orig.AppendWindows(nil, li))
		if live >= ls.Buckets-1 {
			t.Fatalf("level %d opened %d of %d windows before the image: it may have wrapped", li, live, ls.Buckets)
		}
		unopened += ls.Buckets - live - 1
	}
	restored := tsdb.NewSeries("ring", spec)
	if _, err := snapshot.Load(first, restored); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*tsdb.Series{orig, restored} {
		if got := s.Spec(); !reflect.DeepEqual(got, spec) || !s.HasSpec(spec) {
			t.Fatalf("partly filled series reports spec %+v, want %+v", got, spec)
		}
	}
	same := func(step string) {
		t.Helper()
		for li := 0; li < orig.Levels(); li++ {
			if a, b := orig.AppendWindows(nil, li), restored.AppendWindows(nil, li); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: level %d diverges:\noriginal %+v\nrestored %+v", step, li, a, b)
			}
		}
	}
	same("after the restore")
	for step := 0; tUS < 3*8*16_000; step++ {
		v := float64(r.IntN(1<<10)) / 8
		if r.IntN(2) == 0 {
			orig.Push(tUS, v)
			restored.Push(tUS, v)
			tUS += 1 + r.Int64N(2_000)
		} else {
			t1 := tUS + r.Int64N(20_000)
			stride := []int64{250, 1_000, 6_000}[r.IntN(3)]
			orig.Fill(tUS, t1, v, stride)
			restored.Fill(tUS, t1, v, stride)
			tUS = t1 + 1
		}
		same(fmt.Sprintf("step %d", step))
	}
	for li, ls := range spec.Levels {
		if live := len(orig.AppendWindows(nil, li)); live != ls.Buckets {
			t.Fatalf("level %d holds %d of %d windows: it has not wrapped", li, live, ls.Buckets)
		}
	}
	full, err := snapshot.Save(orig, snapshot.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := snapshot.Save(restored, snapshot.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, full) {
		t.Fatalf("restored series images differently after wrapping (%d vs %d bytes)", len(again), len(full))
	}
	if saved := len(full) - len(first); saved < 35*unopened {
		t.Fatalf("partly filled image is %d bytes, the wrapped one %d: want at least %d fewer for %d unopened windows",
			len(first), len(full), 35*unopened, unopened)
	}
}
