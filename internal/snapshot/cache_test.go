package snapshot_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"agsim/internal/chip"
	"agsim/internal/firmware"
	"agsim/internal/sample"
	"agsim/internal/snapshot"
)

// settable returns a writable view of v, an addressable value that may be
// an unexported field.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// pointerFree reports whether a value of type t holds no pointer, so
// overwriting it cannot reach state that lives elsewhere.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Ptr, reflect.Interface, reflect.Map, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return false
	case reflect.Slice, reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
	}
	return true
}

// garbage overwrites every scalar in v with a random value: a slice is
// first extended to its capacity, so scratch that sits beyond its length
// is overwritten too.
func garbage(v reflect.Value, r *rand.Rand) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1 + r.Int64N(100))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1 + r.Uint64N(100))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(r.NormFloat64() * 1e3)
	case reflect.String:
		v.SetString(fmt.Sprintf("garbage-%d", r.Uint64()))
	case reflect.Slice:
		v.Set(v.Slice(0, v.Cap()))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			garbage(v.Index(i), r)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			garbage(settable(v.Field(i)), r)
		}
	}
}

// scribbleSkipped walks the object graph under root and overwrites every
// pointer-free field tagged `snapshot:"-"` with garbage. Pointer fields
// are left alone: the streams a chip tags as storage are also reached
// through fields the image carries. It returns the tagged fields it
// overwrote, as "type.field" with a count per name.
func scribbleSkipped(root any, r *rand.Rand) map[string]int {
	hit := map[string]int{}
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Ptr:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			t := v.Type()
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				if f.Tag.Get("snapshot") != "-" {
					walk(v.Field(i))
					continue
				}
				if v.CanAddr() && pointerFree(f.Type) {
					garbage(settable(v.Field(i)), r)
					hit[t.String()+"."+f.Name]++
				}
			}
		}
	}
	walk(reflect.ValueOf(root))
	return hit
}

// sampledChip is a recorded chip after a sampling-governor run, so its
// frozen read model holds the operating point of its last fast-forward.
func sampledChip(seed uint64, mode firmware.Mode) *chip.Chip {
	c := recordedChip(seed)
	c.SetMode(mode)
	sample.New(c, sample.Config{}).Run(3, nil)
	return c
}

// frozenQ reads a chip's frozen sensor tails, the read model's largest
// array.
func frozenQ(c *chip.Chip) []float64 {
	v := reflect.ValueOf(c).Elem().FieldByName("frozenQ")
	out := make([]float64, v.Len())
	for i := range out {
		out[i] = v.Index(i).Float()
	}
	return out
}

// TestSkippedFieldsCarryNoState saves a chip after a sampler run, writes
// garbage into every field the image skips — the frozen read model's
// arrays, tail and flags, the step scratch, the shape-key string, each
// CPM's, DPLL's and controller's law copy and the CPM read memos — and
// saves again: the two images must match byte for byte.
func TestSkippedFieldsCarryNoState(t *testing.T) {
	c := sampledChip(21, firmware.Undervolt)
	built := false
	for _, q := range frozenQ(c) {
		built = built || q != 0 && q != 1
	}
	if !built {
		t.Fatal("the frozen read model holds no tail: the sampler never fast-forwarded")
	}
	meta := snapshot.Meta{Seed: 21, ShapeKey: c.ShapeKey()}
	want, err := snapshot.Save(c, meta)
	if err != nil {
		t.Fatal(err)
	}
	hit := scribbleSkipped(c, rand.New(rand.NewPCG(21, 8)))
	for _, name := range []string{
		"chip.Chip.shapeKey", "chip.Chip.scratchCurrents", "chip.Chip.scratchProfiles", "chip.Chip.scratchDrops",
		"chip.Chip.frozenDetMV", "chip.Chip.frozenMVB", "chip.Chip.frozenQ", "chip.Chip.frozenSuf",
		"chip.Chip.frozenArgW", "chip.Chip.frozenTail", "chip.Chip.frozenAnyDead", "chip.Chip.frozenNoSensors",
		"cpm.Sensor.law", "dpll.DPLL.law", "firmware.Controller.law", "cpm.Sensor.memoOut",
	} {
		if hit[name] == 0 {
			t.Errorf("no %s overwritten (overwrote %v)", name, hit)
		}
	}
	if c.ShapeKey() == meta.ShapeKey {
		t.Fatal("the shape key was not overwritten")
	}
	got, err := snapshot.Save(c, meta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("garbage in skipped fields reached the image (%d vs %d bytes)", len(got), len(want))
	}
}

// spanTrace drives c through alternating fast-forward spans and detailed
// windows and fingerprints what the firmware and a reader see after each
// segment.
func spanTrace(c *chip.Chip, spans int) string {
	var sb strings.Builder
	for i := 0; i < spans; i++ {
		c.FastForward(c.SampleHint(0.4))
		fmt.Fprintf(&sb, "ff %v|%v|%v|%v\n", c.Time(), c.ChipPower(), c.CoreFreq(0), c.UndervoltMV())
		sb.WriteString(stepTrace(c, 0.072))
	}
	return sb.String()
}

// TestRestoreBetweenFastForwards saves a chip between two fast-forward
// spans and loads it into a fresh target whose frozen read model and step
// scratch were built at another operating point. Driven on through more
// spans and detailed windows, the two must read the same CoreFreq,
// ChipPower and UndervoltMV after every segment and image alike at the
// end: each span builds the model before its first frozen tick reads it,
// and each step writes its scratch before reading it.
func TestRestoreBetweenFastForwards(t *testing.T) {
	for _, mode := range []firmware.Mode{firmware.Undervolt, firmware.Overclock} {
		t.Run(mode.String(), func(t *testing.T) {
			orig := recordedChip(33)
			orig.SetMode(mode)
			orig.Settle(0.3)
			orig.FastForward(orig.SampleHint(0.5))
			orig.Settle(0.072)
			img, err := snapshot.Save(orig, snapshot.Meta{Seed: 33})
			if err != nil {
				t.Fatal(err)
			}
			target := recordedChip(34)
			target.SetMode(firmware.Static)
			target.Settle(0.2)
			target.FastForward(target.SampleHint(0.5))
			if reflect.DeepEqual(frozenQ(target), frozenQ(orig)) {
				t.Fatal("the target's read model matches the original's: the restore check is vacuous")
			}
			if _, err := snapshot.Load(img, target); err != nil {
				t.Fatal(err)
			}
			if got, want := spanTrace(target, 5), spanTrace(orig, 5); got != want {
				t.Fatalf("restored chip diverges from the original:\n%s\nvs\n%s", got, want)
			}
			want, err := snapshot.Save(orig, snapshot.Meta{Seed: 33})
			if err != nil {
				t.Fatal(err)
			}
			got, err := snapshot.Save(target, snapshot.Meta{Seed: 33})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("restored chip images differently after the spans (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}
