package snapshot

import (
	"bytes"
	"reflect"
	"testing"

	"agsim/internal/rng"
)

// TestHookAppendsInPlace images RNG streams through the append hook: the
// bytes must be each stream's AppendBinary bytes, length-prefixed, and a
// warm encoder must write them without allocating.
func TestHookAppendsInPlace(t *testing.T) {
	type streams struct{ A, B *rng.Source }
	v := reflect.ValueOf(&streams{A: rng.New(1, "a"), B: rng.New(2, "b")}).Elem()
	ti := infoOf(v.Type())
	if !ti.fields[0].hooked {
		t.Fatal("*rng.Source not planned as hooked")
	}
	var want writer
	for _, s := range []*rng.Source{v.Field(0).Interface().(*rng.Source), v.Field(1).Interface().(*rng.Source)} {
		b, err := s.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		want.u8(ptrNew)
		want.bytes(b)
	}
	e := &encoder{ids: map[ptrKey]uint64{}}
	e.value(v, ti)
	if e.err != nil || !bytes.Equal(e.w.written(), want.written()) {
		t.Fatalf("hook wrote %x (%v), want %x", e.w.written(), e.err, want.written())
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.w.n = 0
		clear(e.ids)
		e.value(v, ti)
	})
	if allocs != 0 {
		t.Fatalf("imaging two streams allocates %v times", allocs)
	}
}
