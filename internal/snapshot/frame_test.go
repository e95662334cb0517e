package snapshot

import (
	"bytes"
	"reflect"
	"testing"
)

// frameRoot is a root whose payload size a test steers: each float is 8
// bytes, so the payload crosses the length prefix's 1-to-2 and 2-to-3
// byte boundaries at known lengths.
type frameRoot struct{ F []float64 }

// referenceImage is the image Save must produce: the payload encoded on
// its own and framed by image.
func referenceImage(t *testing.T, root any, meta Meta) []byte {
	t.Helper()
	rv := reflect.ValueOf(root)
	e := &encoder{ids: map[ptrKey]uint64{}}
	e.value(rv, infoOf(rv.Type()))
	if e.err != nil {
		t.Fatal(e.err)
	}
	return image(rv.Type().String(), meta, e.w.written())
}

// TestSaveFramesInPlace runs a series of Saves of one root type whose
// payload grows and shrinks across the length prefix's size boundaries,
// so each Save's buffer, sized from the one before, is too small, too
// large or reserved a prefix of the wrong length. Every image must equal
// the separately framed reference byte for byte and carry little spare
// capacity. AppendSave writes the same images after the bytes already in
// a buffer it is handed back, truncated to a short prefix, every time.
func TestSaveFramesInPlace(t *testing.T) {
	meta := Meta{ShapeKey: "frame", Seed: 7, Revision: "r", Extra: "x", TimeSec: 1.5}
	const lead = "lead"
	buf := []byte(lead)
	for _, n := range []int{0, 14, 15, 16, 2000, 2047, 2048, 3, 2100, 16, 40000, 1} {
		root := &frameRoot{F: make([]float64, n)}
		for i := range root.F {
			root.F[i] = float64(i)
		}
		img, err := Save(root, meta)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceImage(t, root, meta)
		if !bytes.Equal(img, want) {
			t.Fatalf("%d floats: Save wrote %d bytes unlike the %d-byte reference image", n, len(img), len(want))
		}
		if spare := cap(img) - len(img); spare > len(img)/8 {
			t.Errorf("%d floats: %d-byte image carries %d spare bytes", n, len(img), spare)
		}
		if buf, err = AppendSave(buf[:len(lead)], root, meta); err != nil {
			t.Fatal(err)
		}
		if string(buf[:len(lead)]) != lead || !bytes.Equal(buf[len(lead):], want) {
			t.Fatalf("%d floats: AppendSave wrote %d bytes unlike the %d-byte reference image after %q", n, len(buf)-len(lead), len(want), lead)
		}
		back := &frameRoot{}
		if _, err := Load(img, back); err != nil || !reflect.DeepEqual(back, root) {
			t.Fatalf("%d floats: round trip failed: %v", n, err)
		}
	}
}

// cachedRoot carries a field tagged as a cache between two state fields.
type cachedRoot struct {
	A     int
	Cache float64 `snapshot:"-"`
	B     []float64
	Memo  int8 `snapshot:"-"`
}

// TestTaggedFieldsSkipped checks a field tagged `snapshot:"-"` writes no
// bytes and keeps the target's value on Load.
func TestTaggedFieldsSkipped(t *testing.T) {
	img, err := Save(&cachedRoot{A: 3, Cache: 9.5, B: []float64{1}, Memo: 4}, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Save(&struct {
		A int
		B []float64
	}{A: 3, B: []float64{1}}, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := PayloadOf(img)
	p2, _ := PayloadOf(bare)
	if !bytes.Equal(p1, p2) {
		t.Errorf("tagged fields reached the payload: %x, want %x", p1, p2)
	}
	back := &cachedRoot{Cache: -1, Memo: -2}
	if _, err := Load(img, back); err != nil {
		t.Fatal(err)
	}
	if want := (cachedRoot{A: 3, Cache: -1, B: []float64{1}, Memo: -2}); !reflect.DeepEqual(*back, want) {
		t.Errorf("loaded %+v, want %+v", *back, want)
	}
}
