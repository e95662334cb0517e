package snapshot

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// Flat struct shapes covering every scalar width the fast path handles.
type (
	flatInts struct {
		A int
		B int8
		C int16
		D int32
		E int64
	}
	flatUints struct {
		A uint
		B uint8
		C uint16
		D uint32
		E uint64
	}
	flatFloats struct {
		On bool
		F  float32
		G  float64
		Bo bool
	}
	level8  uint8
	temp32  float32
	flag    bool
	count32 int32
	// flatNamed mixes named scalars with unexported fields.
	flatNamed struct {
		on    flag
		Lvl   level8
		t     temp32
		N     count32
		Wide  uint64
		Small int8
	}
)

// flatValues returns a few values of each flat type, extremes included:
// sign extension, varint widths, -0, NaN payloads, float32 denormals.
func flatValues() [][]any {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	return [][]any{
		{
			flatInts{A: math.MinInt64, B: math.MinInt8, C: math.MaxInt16, D: -1, E: math.MaxInt64},
			flatInts{A: 1, B: 127, C: -129, D: math.MinInt32, E: 0},
			flatInts{},
		},
		{
			flatUints{A: math.MaxUint64, B: 255, C: 128, D: math.MaxUint32, E: 1 << 63},
			flatUints{A: 127, B: 127, C: math.MaxUint16, D: 0, E: 300},
			flatUints{},
		},
		{
			flatFloats{On: true, F: float32(math.Copysign(0, -1)), G: nan, Bo: false},
			flatFloats{F: math.SmallestNonzeroFloat32, G: math.Inf(-1), Bo: true},
			flatFloats{F: math.MaxFloat32, G: -1e-300},
		},
		{
			flatNamed{on: true, Lvl: 200, t: 1.5, N: -7, Wide: math.MaxUint64, Small: -128},
			flatNamed{Lvl: 1, t: temp32(math.Inf(1)), N: math.MaxInt32},
			flatNamed{},
		},
	}
}

// fieldBytes writes a flat struct field by field with the writer
// primitives — the reference the flat path must match byte for byte.
func fieldBytes(t *testing.T, w *writer, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Bool:
			if f.Bool() {
				w.u8(1)
			} else {
				w.u8(0)
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			w.i64(f.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			w.u64(f.Uint())
		case reflect.Float32, reflect.Float64:
			w.f64(f.Float())
		default:
			t.Fatalf("%s.%s is not a flat scalar", v.Type(), v.Type().Field(i).Name)
		}
	}
}

func encodeValue(t *testing.T, v reflect.Value) []byte {
	t.Helper()
	e := &encoder{ids: map[ptrKey]uint64{}}
	e.value(v, infoOf(v.Type()))
	if e.err != nil {
		t.Fatal(e.err)
	}
	return e.w.written()
}

// TestFlatPathMatchesFieldWalk holds the offset-driven fast path to the
// bytes the primitives write field by field, for flat structs as slice
// and array elements, as fields of a non-flat struct, behind a pointer,
// and inside interfaces (whose dynamic values are not addressable, so the
// reflective walk handles them). Each image must also decode back to a
// value that re-encodes to the same bytes.
func TestFlatPathMatchesFieldWalk(t *testing.T) {
	anyT := reflect.TypeOf((*any)(nil)).Elem()
	for _, vals := range flatValues() {
		ft := reflect.TypeOf(vals[0])
		t.Run(ft.Name(), func(t *testing.T) {
			if !infoOf(ft).flat {
				t.Fatalf("%s not planned as flat", ft)
			}
			arrT := reflect.ArrayOf(len(vals), ft)
			holderT := reflect.StructOf([]reflect.StructField{
				{Name: "Name", Type: reflect.TypeOf("")},
				{Name: "X", Type: ft},
				{Name: "P", Type: reflect.PointerTo(ft)},
				{Name: "Any", Type: anyT},
				{Name: "AnyArr", Type: anyT},
				{Name: "S", Type: reflect.SliceOf(ft)},
				{Name: "Arr", Type: arrT},
			})
			if infoOf(holderT).flat {
				t.Fatalf("holder with a string field planned as flat")
			}
			h := reflect.New(holderT).Elem()
			h.Field(0).SetString("holder")
			h.Field(1).Set(reflect.ValueOf(vals[0]))
			p := reflect.New(ft)
			p.Elem().Set(reflect.ValueOf(vals[1]))
			h.Field(2).Set(p)
			h.Field(3).Set(reflect.ValueOf(vals[2]))
			arr := reflect.New(arrT).Elem()
			s := reflect.MakeSlice(reflect.SliceOf(ft), 0, len(vals))
			for i, v := range vals {
				arr.Index(i).Set(reflect.ValueOf(v))
				s = reflect.Append(s, reflect.ValueOf(v))
			}
			h.Field(4).Set(arr)
			h.Field(5).Set(s)
			h.Field(6).Set(arr)

			var want writer
			want.str("holder")
			fieldBytes(t, &want, reflect.ValueOf(vals[0]))
			want.u8(ptrNew)
			fieldBytes(t, &want, reflect.ValueOf(vals[1]))
			want.u8(1)
			want.str(ft.String())
			fieldBytes(t, &want, reflect.ValueOf(vals[2]))
			want.u8(1)
			want.str(arrT.String())
			for _, v := range vals {
				fieldBytes(t, &want, reflect.ValueOf(v))
			}
			want.u64(uint64(len(vals)) + 1)
			for _, v := range vals {
				fieldBytes(t, &want, reflect.ValueOf(v))
			}
			for _, v := range vals {
				fieldBytes(t, &want, reflect.ValueOf(v))
			}

			got := encodeValue(t, h)
			if !bytes.Equal(got, want.written()) {
				t.Fatalf("flat path wrote\n%x\nfield walk writes\n%x", got, want.written())
			}

			// Decode into a target whose interfaces hold the right dynamic
			// types (the decoder reuses them) and whose pointer is nil.
			dst := reflect.New(holderT).Elem()
			dst.Field(3).Set(reflect.Zero(ft))
			dst.Field(4).Set(reflect.Zero(arrT))
			d := &decoder{r: &reader{buf: got}}
			d.value(dst, infoOf(holderT))
			if d.err != nil || d.r.err != nil || d.r.off != len(got) {
				t.Fatalf("decode: %v %v, %d of %d bytes", d.err, d.r.err, d.r.off, len(got))
			}
			if again := encodeValue(t, dst); !bytes.Equal(again, got) {
				t.Fatalf("decoded value re-encodes differently:\n%x\nvs\n%x", again, got)
			}
		})
	}
}

// ifaceRoot is a root whose one field is an interface.
type ifaceRoot struct{ V any }

// TestInterfaceNeedsTargetDynamicType: an interface decodes only into a
// target that already holds the image's dynamic type. When the target
// holds another type, or nothing, Load returns an error naming both types
// and never panics.
func TestInterfaceNeedsTargetDynamicType(t *testing.T) {
	img, err := Save(&ifaceRoot{V: 7}, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		target any
		held   string
	}{
		{"other type", "x", "string"},
		{"nil", nil, "nil"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked: %v", r)
				}
			}()
			_, err := Load(img, &ifaceRoot{V: tc.target})
			if err == nil {
				t.Fatal("Load restored an int into a target holding " + tc.held)
			}
			if msg := err.Error(); !strings.Contains(msg, `"int"`) || !strings.Contains(msg, "target holds "+tc.held) {
				t.Fatalf("error %q does not name the image's int and the target's %s", msg, tc.held)
			}
		})
	}
	dst := &ifaceRoot{V: 0}
	if _, err := Load(img, dst); err != nil || dst.V != 7 {
		t.Fatalf("Load into a target holding an int: %v, V = %v", err, dst.V)
	}
}

// TestFlatPlanExcludesNonScalars keeps types the walker must visit field
// by field, or skip, off the fast path.
func TestFlatPlanExcludesNonScalars(t *testing.T) {
	for _, v := range []any{
		struct{ A, B complex128 }{},
		struct{ P uintptr }{},
		struct {
			A int
			S string
		}{},
		struct {
			A  int
			In flatInts
		}{},
		struct{ A [2]int }{},
	} {
		if infoOf(reflect.TypeOf(v)).flat {
			t.Errorf("%T planned as flat", v)
		}
	}
	// sync.Mutex is two integers, but a skipped type writes no bytes.
	for _, v := range []any{sync.Mutex{}, sync.RWMutex{}, sync.Once{}, sync.WaitGroup{}} {
		if ti := infoOf(reflect.TypeOf(v)); !ti.skip || ti.flat || ti.minBytes != 0 {
			t.Errorf("%T: skip %v flat %v minBytes %d", v, ti.skip, ti.flat, ti.minBytes)
		}
	}
}

// TestInfoOfConcurrentFirstUse builds the plan of a type no other test
// uses from several goroutines at once, as parallel sweeps do when they
// Save and Load concurrently: every caller must get the same complete
// plan and write the same bytes. Run it under -race.
func TestInfoOfConcurrentFirstUse(t *testing.T) {
	ft := reflect.TypeOf(flatInts{})
	for round := 0; round < 4; round++ {
		// A struct type minted for this round is not in the cache yet.
		typ := reflect.StructOf([]reflect.StructField{
			{Name: fmt.Sprintf("Round%d", round), Type: reflect.SliceOf(ft)},
			{Name: "P", Type: reflect.PointerTo(ft)},
			{Name: "M", Type: reflect.MapOf(reflect.TypeOf(""), ft)},
		})
		v := reflect.New(typ).Elem()
		v.Field(0).Set(reflect.ValueOf([]flatInts{{A: 1}, {B: -2}}))
		v.Field(1).Set(reflect.ValueOf(&flatInts{C: 3}))
		v.Field(2).Set(reflect.ValueOf(map[string]flatInts{"k": {D: 4}}))
		const workers = 8
		plans := make([]*typeInfo, workers)
		imgs := make([][]byte, workers)
		errs := make([]error, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				plans[w] = infoOf(typ)
				e := &encoder{ids: map[ptrKey]uint64{}}
				e.value(v, plans[w])
				imgs[w], errs[w] = e.w.written(), e.err
			}(w)
		}
		close(start)
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				t.Fatal(errs[w])
			}
			if plans[w] != plans[0] || !bytes.Equal(imgs[w], imgs[0]) {
				t.Fatalf("round %d worker %d: plan %p vs %p, bytes %x vs %x", round, w, plans[w], plans[0], imgs[w], imgs[0])
			}
		}
	}
}
