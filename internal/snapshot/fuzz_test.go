package snapshot_test

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"agsim/internal/chip"
	"agsim/internal/obs"
	"agsim/internal/snapshot"
	"agsim/internal/tsdb"
)

// Roots with one hostile-length target each.
type (
	floatsRoot struct{ F []float64 }
	bytesRoot  struct{ B []byte }
	flatsRoot  struct {
		W []struct {
			T    int64
			A, B float64
		}
	}
	mapRoot   struct{ M map[string]float64 }
	emptyRoot struct{ E []struct{} }
)

// lengthPayload is a root pointer marker followed by one slice or map
// length prefix of n (encoded n+1) and then the given element bytes.
func lengthPayload(n uint64, elems ...byte) []byte {
	return append(binary.AppendUvarint([]byte{1}, n+1), elems...)
}

// TestHostileLengthsRejected feeds Load images of a few dozen bytes, with
// valid CRCs, whose one length prefix claims far more elements than the
// payload holds. Each must fail with an error before anything is sized
// from the prefix; a 2^40-element []float64 used to exhaust memory.
func TestHostileLengthsRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		root  func() any
		n     uint64
		elems []byte
	}{
		{"[]float64 2^40", func() any { return &floatsRoot{} }, 1 << 40, nil},
		{"[]float64 max", func() any { return &floatsRoot{} }, 1<<64 - 2, nil},
		{"[]byte 2^40", func() any { return &bytesRoot{} }, 1 << 40, nil},
		{"[]flat struct 2^40", func() any { return &flatsRoot{} }, 1 << 40, nil},
		{"map 2^40", func() any { return &mapRoot{} }, 1 << 40, nil},
		{"[]float64 one past the payload", func() any { return &floatsRoot{} }, 2, make([]byte, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := tc.root()
			img, err := snapshot.Save(root, snapshot.Meta{})
			if err != nil {
				t.Fatal(err)
			}
			hostile := snapshot.Rewrap(img, lengthPayload(tc.n, tc.elems...))
			_, err = snapshot.Load(hostile, tc.root())
			if err == nil || !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("%d-byte image with length %d: got %v, want a length error", len(hostile), tc.n, err)
			}
		})
	}
	// A length the payload does hold still decodes.
	img, err := snapshot.Save(&floatsRoot{F: []float64{1, 2}}, snapshot.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	var back floatsRoot
	if _, err := snapshot.Load(img, &back); err != nil || len(back.F) != 2 || back.F[1] != 2 {
		t.Fatalf("exact-length slice: %v, %v", err, back.F)
	}
	// Zero-byte elements carry no payload, so only an int bounds them.
	img, err = snapshot.Save(&emptyRoot{E: make([]struct{}, 3)}, snapshot.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	var empty emptyRoot
	if _, err := snapshot.Load(snapshot.Rewrap(img, lengthPayload(1<<40)), &empty); err != nil || len(empty.E) != 1<<40 {
		t.Fatalf("empty-struct slice: %v, len %d", err, len(empty.E))
	}
}

// fuzzRecorder is a recorder small enough to keep fuzz inputs short while
// its rings and series still wrap.
func fuzzRecorder() *obs.Recorder {
	rec := obs.New("fuzz", 8)
	rec.EnableTimeSeries(tsdb.Spec{Levels: []tsdb.LevelSpec{
		{WidthUS: 1_000, Buckets: 4},
		{WidthUS: 32_000, Buckets: 4},
	}})
	return rec
}

// fuzzRoots builds the targets FuzzLoad decodes into: a chip with a
// recorder, and a 2-node serving fleet with its generator. Each call
// builds fresh objects of the same shape.
var fuzzRoots = []func() (root any, done func()){
	func() (any, func()) { return testChip(3, fuzzRecorder().Shard("chip")), func() {} },
	func() (any, func()) {
		p := servePairOn(fuzzRecorder(), 2, 3)
		return p, p.F.Close
	},
}

// fuzzImages returns, per root, a round-trip image of that root run
// forward so its recorder holds events and series.
func fuzzImages(tb testing.TB) [][]byte {
	imgs := make([][]byte, len(fuzzRoots))
	for i, build := range fuzzRoots {
		root, done := build()
		switch r := root.(type) {
		case *chip.Chip:
			r.Settle(0.2)
		case *servePair:
			r.F.Advance(0.2)
			r.serve(2, 0.1)
		}
		img, err := snapshot.Save(root, snapshot.Meta{Seed: 3})
		done()
		if err != nil {
			tb.Fatal(err)
		}
		imgs[i] = img
	}
	return imgs
}

// FuzzLoad decodes arbitrary payloads into live simulation objects. The
// payload is wrapped in a valid header and CRC, so the walker — not the
// checksum — sees the bytes. Load must return (an error or nil) without
// panicking, and must not allocate more than a small multiple of its
// input: lengths are bounded by the unread payload before anything is
// sized from them.
func FuzzLoad(f *testing.F) {
	imgs := fuzzImages(f)
	for i, img := range imgs {
		payload, err := snapshot.PayloadOf(img)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), payload)
		f.Add(uint8(i), payload[:len(payload)/2])
		flipped := append([]byte(nil), payload...)
		flipped[len(flipped)/3] ^= 0x80
		f.Add(uint8(i), flipped)
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		i := int(which) % len(fuzzRoots)
		root, done := fuzzRoots[i]()
		defer done()
		img := snapshot.Rewrap(imgs[i], payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := snapshot.Load(img, root)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(img))+1<<20 {
			t.Fatalf("Load of a %d-byte image allocated %d bytes (err %v)", len(img), alloc, err)
		}
	})
}
