package snapshot_test

import (
	"bytes"
	"fmt"
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

func TestChipShapeMismatchRejected(t *testing.T) {
	orig := testChip(11, nil)
	img, err := snapshot.Save(orig, snapshot.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	other := chip.MustNew(chip.DefaultConfig("P0", 11).WithMesh())
	if _, err := snapshot.Load(img, other); err == nil || !strings.Contains(err.Error(), "shape mismatch") {
		t.Fatalf("want shape mismatch error, got %v", err)
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
	s.MustSubmit("j", d, server.ConsolidatedPlacements(6), 1e9)
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
	// merge identically to the original's: counters, events, series rings.
	if !reflect.DeepEqual(restRec.Snapshot(), origRec.Snapshot()) {
		t.Fatalf("merged recorder snapshots diverge after restore")
	}
}

func TestClusterRestoreIdentity(t *testing.T) {
	// The subtest keeps the name it had when a batched lane ran beside the
	// scalar one; the scalar lane is the only lane now.
	t.Run("batched=false", func(t *testing.T) {
		build := func() *cluster.Cluster {
			c := cluster.MustNew(3, cluster.DefaultNodeConfig(31))
			d := workload.MustGet("swaptions")
			for j := 0; j < 4; j++ {
				if _, err := c.Submit(fmt.Sprintf("job%d", j), d, 4, 1e9); err != nil {
					t.Fatalf("submit: %v", err)
				}
			}
			return c
		}
		orig := build()
		orig.Step(0.3)
		img, err := snapshot.Save(orig, snapshot.Meta{Seed: 31})
		if err != nil {
			t.Fatalf("save cluster: %v", err)
		}
		restored := build()
		if _, err := snapshot.Load(img, restored); err != nil {
			t.Fatalf("load cluster: %v", err)
		}
		for i := 0; i < 12; i++ {
			orig.Step(0.05)
			restored.Step(0.05)
			if got, want := restored.TotalPower(), orig.TotalPower(); got != want {
				t.Fatalf("step %d: cluster power diverges: %v vs %v", i, got, want)
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
				s.MustSubmit("j", d, server.ConsolidatedPlacements(4), 1e9)
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
