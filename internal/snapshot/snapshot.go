// Package snapshot serializes live simulation state — a chip, a server, a
// cluster, a fleet, a traffic generator — to a compact binary image and
// restores it bit-identically. It is the engine behind amesterd's
// checkpoints and agsim's replay (cmd/amesterd, cmd/agsim), and ROADMAP
// item 2's checkpoint/restore.
//
// The design is restore-into-same-shape: Load requires a target freshly
// constructed (or Reset) from the same configuration as the saved object,
// enforced by the shape key in the header. That contract is what keeps the
// wire format small and the walker simple — immutable structure (PDN
// kernels, law tables, worker pools) is carried by the target and skipped
// on the wire; only mutable state travels. The walker is reflection-based
// and generic: it serializes unexported fields via unsafe addressing,
// preserves pointer aliasing through an identity table (a thread shared by
// a job, a core run queue and a free list restores as one object), keeps
// nil-vs-empty slice distinctions, writes maps in sorted-key order, and
// round-trips RNG stream positions through rng.Source's BinaryAppender
// hook. Funcs, channels, registered runtime-only types (parallel.Pool,
// the immutable pdn networks) and struct fields tagged `snapshot:"-"`
// keep the target's value; for registered pointer types presence must
// match between image and target. An interface decodes only into a target
// that already holds the image's dynamic type — for the one interface the
// simulation state carries, the chip's pdn.Network, the shape key
// guarantees that — so the codec constructs no concrete type and imports
// no simulation package. The tag marks what is not state:
//
//   - caches and scratch that every use writes before it reads: a CPM's
//     read memo, a chip's frozen read model (which each fast-forward
//     builds before its first tick) and its step-loop scratch;
//   - configuration copied from the shape: the V–f law each CPM, DPLL and
//     firmware controller keeps, and the cached shape keys of chips and
//     servers, which the header's key stands for;
//   - reuse storage: a server's thread free list and a chip's RNG walk
//     streams.
//
// Save returns an image in a buffer of its own; AppendSave appends one to
// a buffer the caller keeps, as amesterd's checkpoint loop does.
//
// Determinism contract: Save(Load(Save(x))) == Save(x) byte-for-byte, and
// a restored object's subsequent step trace is bit-identical to the
// original's.
package snapshot

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"unsafe"
)

// layoutVersion is the binary-layout generation of the simulation state
// the walker serializes. It is header byte 7, right after the magic, so an
// image captured from an older struct layout is rejected at Load rather
// than misread by a binary that lays its state out differently. Bump it
// whenever a snapshot-walked struct changes shape.
//
// Version 2 dropped the batched stepping lane's fields: fleet.Config's
// Batched flag, the fleet's per-shard engine pointer and sealed flag, and
// the cluster's batched flag, engine, gathered-server list and slot map.
// Version 3 dropped the cluster's node-stepping worker pool and its unread
// seed. Version 4 added the chip's lastMove, the quiescence proof's last
// micro-step movement. Version 5 dropped the streams that existed only so
// a pooled chip could replay construction — the chip's per-core sensor
// parents and each CPM's calibration stream — and the server's thread
// free list, which is reuse storage; an idle core's thread list and an
// empty server's job list now image as empty, never nil. Version 6
// images a tsdb ring only up to the newest window it has opened: the
// windows a level has not opened yet (35 bytes each, four zero floats
// and three varints) are no longer written, so a never-written
// CompactSpec series' payload is 136 bytes rather than 6,751. Version 7
// appends two counters to each recorder counter row, obs's
// CThrottleDecisions and CExhaustedTicks, so every row images two more
// uvarints. Version 8 drops what is not state: the chip's frozen read
// model (its six arrays and two flags, about 9 KB per chip) and step
// scratch, the V–f law each CPM, DPLL and firmware controller copies,
// and the chip's and server's cached shape keys. Version 9 drops the
// cluster's placement-policy interface and each node's platform and
// suspended power fields: a cluster node images its server configuration
// alone, and the two draws are package constants. Version 10 drops each
// thread's deterministic phase schedule and its clock (workload.Thread's
// phases and elapsedSec) and the chip's horizon scratch (lastHorizonSec,
// lastHorizonReason), and renumbers the leap reasons after the retired
// phase-boundary reason one lower.
const layoutVersion byte = 10

// codecVersion is the wire-format generation of this package's walker,
// independent of layoutVersion (which tracks simulation struct layout).
// Both are enforced at Load.
const codecVersion byte = 1

const magic = "agsnap\n"

// Pointer field markers.
const (
	ptrNil  = 0 // nil pointer
	ptrNew  = 1 // first occurrence: pointee follows
	ptrRef  = 2 // back-reference: identity-table id follows
	ptrSkip = 3 // registered runtime-only type: presence only
)

// Meta is the header carried with every image.
type Meta struct {
	// ShapeKey is the structural identity of the saved object; Load
	// refuses a target whose ShapeKey() differs. Save fills it
	// automatically when the root implements Shaped.
	ShapeKey string
	// Seed is the experiment seed the object was built from.
	Seed uint64
	// Revision is free-form provenance (an experiment tag, a git rev).
	Revision string
	// Extra is a free-form payload; amesterd stores the serving-scenario
	// construction parameters here so replay can rebuild the target.
	Extra string
	// TimeSec is the simulated time at capture.
	TimeSec float64
}

// Shaped is implemented by roots that can state their structural identity
// (chip.Chip, server.Server do); Save records it, Load enforces it.
type Shaped interface{ ShapeKey() string }

// skipPtrTypes are runtime-only or immutable-by-construction pointer
// types: the image records presence only and the target keeps its own.
var skipPtrTypes = map[string]bool{
	"*parallel.Pool": true, // goroutine pool: runtime resource
	"*pdn.Plane":     true, // immutable lumped PDN
	"*pdn.Mesh":      true, // immutable mesh kernel, shared via pdn cache
}

// skipStructTypes contribute no bytes; the target's value is kept.
var skipStructTypes = map[string]bool{
	"sync.Mutex":     true,
	"sync.RWMutex":   true,
	"sync.Once":      true,
	"sync.WaitGroup": true,
}

var (
	appenderT    = reflect.TypeOf((*encoding.BinaryAppender)(nil)).Elem()
	unmarshalerT = reflect.TypeOf((*encoding.BinaryUnmarshaler)(nil)).Elem()
)

// hooked reports whether a pointer type serializes through its own
// BinaryAppender/BinaryUnmarshaler pair (rng.Source does: PCG state).
func hooked(t reflect.Type) bool {
	return t.Implements(appenderT) && t.Implements(unmarshalerT)
}

// settable returns a writable view of an addressable value, laundering
// the read-only flag unexported fields carry.
func settable(v reflect.Value) reflect.Value {
	if v.CanSet() {
		return v
	}
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// ptrIface returns p's pointee re-addressed as a usable interface value,
// bypassing unexported-field provenance. p must be a non-nil pointer.
func ptrIface(p reflect.Value) any {
	return reflect.NewAt(p.Type().Elem(), unsafe.Pointer(p.Pointer())).Interface()
}

// ptrKey identifies one pointer occurrence: the address and the pointer
// type (two types may share an address, e.g. a struct and its first
// field).
type ptrKey struct {
	addr uintptr
	typ  *typeInfo
}

type encoder struct {
	w    writer
	ids  map[ptrKey]uint64
	path []pathFrame
	err  error
	hook []byte // reused append-hook output

	// Map scratch, shared by every map one Save writes: keys encodes the
	// map keys, and entries holds each key's span in keys with its value
	// while the map sorts. A map met inside another map's values stacks
	// its entries and keys above its parent's and drops them when done.
	keys    *encoder
	entries []mapEntry
}

// mapEntry is one map entry awaiting its sorted write: the key's encoded
// bytes are keys.w.buf[lo:hi].
type mapEntry struct {
	lo, hi int
	val    reflect.Value
}

func (e *encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("snapshot: save %s: %s", pathString(e.path), fmt.Sprintf(format, args...))
	}
}

// pathFrame records one struct-field step of the walk as (type, field
// index); the field name is resolved only when an error message needs it,
// keeping reflect.Type.Field — which copies a large StructField — off the
// happy path.
type pathFrame struct {
	t reflect.Type
	i int
}

func pathString(p []pathFrame) string {
	if len(p) == 0 {
		return "<root>"
	}
	s := ""
	for _, f := range p {
		s += "." + f.t.Field(f.i).Name
	}
	return s
}

func (e *encoder) value(v reflect.Value, ti *typeInfo) {
	if e.err != nil {
		return
	}
	switch ti.kind {
	case reflect.Bool:
		if v.Bool() {
			e.w.u8(1)
		} else {
			e.w.u8(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.w.i64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.w.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		e.w.f64(v.Float())
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		e.w.f64(real(c))
		e.w.f64(imag(c))
	case reflect.String:
		e.w.str(v.String())
	case reflect.Slice:
		if v.IsNil() {
			e.w.u64(0)
			return
		}
		n := v.Len()
		e.w.u64(uint64(n) + 1)
		// v.Pointer() is the backing array even on read-only values.
		switch el := ti.elem; {
		case el.kind == reflect.Uint8:
			e.w.raw(v.Bytes())
			return
		case el.kind == reflect.Float64:
			// Bulk path: the same bytes the element loop would write.
			e.w.f64s(unsafe.Slice((*float64)(unsafe.Pointer(v.Pointer())), n))
			return
		case el.flat:
			e.w.flats(unsafe.Pointer(v.Pointer()), n, el)
			return
		}
		for i := 0; i < n; i++ {
			e.value(v.Index(i), ti.elem)
		}
	case reflect.Array:
		el := ti.elem
		switch {
		case el.kind == reflect.Uint8:
			for i := 0; i < v.Len(); i++ {
				e.w.u8(byte(v.Index(i).Uint()))
			}
			return
		case el.kind == reflect.Float64 && v.CanAddr():
			e.w.f64s(unsafe.Slice((*float64)(unsafe.Pointer(v.UnsafeAddr())), v.Len()))
			return
		case el.flat && v.CanAddr():
			e.w.flats(unsafe.Pointer(v.UnsafeAddr()), v.Len(), el)
			return
		}
		for i := 0; i < v.Len(); i++ {
			e.value(v.Index(i), el)
		}
	case reflect.Map:
		e.mapValue(v, ti)
	case reflect.Ptr:
		if ti.skip {
			e.w.u8(ptrSkip)
			if v.IsNil() {
				e.w.u8(0)
			} else {
				e.w.u8(1)
			}
			return
		}
		if v.IsNil() {
			e.w.u8(ptrNil)
			return
		}
		key := ptrKey{addr: v.Pointer(), typ: ti}
		if id, ok := e.ids[key]; ok {
			e.w.u8(ptrRef)
			e.w.u64(id)
			return
		}
		e.ids[key] = uint64(len(e.ids))
		e.w.u8(ptrNew)
		if ti.hooked {
			var err error
			e.hook, err = ptrIface(v).(encoding.BinaryAppender).AppendBinary(e.hook[:0])
			if err != nil {
				e.fail("append hook %s: %v", ti.t, err)
				return
			}
			e.w.bytes(e.hook)
			return
		}
		e.value(v.Elem(), ti.elem)
	case reflect.Interface:
		if v.IsNil() {
			e.w.u8(0)
			return
		}
		dyn := v.Elem()
		dt := dyn.Type()
		e.w.u8(1)
		e.w.str(dt.String())
		e.value(dyn, infoOf(dt))
	case reflect.Struct:
		if ti.skip {
			return
		}
		if ti.flat && v.CanAddr() {
			// Non-addressable values (an interface's dynamic value, a map
			// value) take the reflective walk below.
			e.w.flat(unsafe.Pointer(v.UnsafeAddr()), ti)
			return
		}
		for i, fi := range ti.fields {
			if fi == nil {
				continue
			}
			e.path = append(e.path, pathFrame{ti.t, i})
			e.value(v.Field(i), fi)
			e.path = e.path[:len(e.path)-1]
		}
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		// Runtime-only: the target keeps its own (a stored method value, a
		// worker channel). Zero bytes on the wire.
	default:
		e.fail("unsupported kind %v (%s)", ti.kind, ti.t)
	}
}

// mapValue writes len+1 then entries sorted by encoded key bytes, so the
// image is independent of Go's map iteration order. Keys must be
// pointer-free (ints, strings, flat structs) — true of every map in the
// simulation graph — because they are encoded outside the identity table.
func (e *encoder) mapValue(v reflect.Value, ti *typeInfo) {
	if v.IsNil() {
		e.w.u64(0)
		return
	}
	if ti.keyPtrs {
		e.fail("map key type %s contains pointers", ti.key.t)
		return
	}
	e.w.u64(uint64(v.Len()) + 1)
	if e.keys == nil {
		e.keys = &encoder{} // pointer-free keys never reach the identity table
	}
	ke := e.keys
	// Every key encodes into the shared key buffer; an entry holds its
	// span. A nested map writes past this map's entries and keys, so
	// entries and kb, once taken, stay valid however the scratch grows.
	base, keyBase := len(e.entries), ke.w.n
	for it := v.MapRange(); it.Next(); {
		lo := ke.w.n
		ke.value(it.Key(), ti.key)
		if ke.err != nil {
			e.err = ke.err
			return
		}
		e.entries = append(e.entries, mapEntry{lo: lo, hi: ke.w.n, val: it.Value()})
	}
	entries, kb := e.entries[base:], ke.w.written()
	slices.SortFunc(entries, func(a, b mapEntry) int {
		return bytes.Compare(kb[a.lo:a.hi], kb[b.lo:b.hi])
	})
	for _, en := range entries {
		e.w.raw(kb[en.lo:en.hi])
		e.value(en.val, ti.elem)
	}
	e.entries, ke.w.n = e.entries[:base], keyBase
}

func keyHasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Ptr, reflect.Interface, reflect.Map, reflect.Slice, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if keyHasPointers(t.Field(i).Type) {
				return true
			}
		}
	case reflect.Array:
		return keyHasPointers(t.Elem())
	}
	return false
}

type decoder struct {
	r    *reader
	ptrs []reflect.Value
	path []pathFrame
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: load %s: %s", pathString(d.path), fmt.Sprintf(format, args...))
	}
}

func (d *decoder) bad() bool { return d.err != nil || d.r.err != nil }

// length reads a slice or map length prefix (len+1, 0 for nil) and checks
// it against the unread payload: n elements of at least minBytes each
// must still fit, so a hostile prefix cannot make Load allocate more than
// a small multiple of its input. Element types that encode to no bytes
// (empty structs, funcs, channels, the skipped sync types) are held only
// to what an int can count. ok is false for nil and on error.
func (d *decoder) length(t reflect.Type, minBytes uint64) (n int, ok bool) {
	m := d.r.u64()
	if d.bad() || m == 0 {
		return 0, false
	}
	n64 := m - 1
	if n64 > math.MaxInt || minBytes > 0 && n64 > d.r.unread()/minBytes {
		d.fail("%s: length %d exceeds the %d unread payload bytes", t, n64, d.r.unread())
		return 0, false
	}
	return int(n64), true
}

// value decodes into an addressable target, reusing its allocations where
// shapes allow and preserving pointer identity via the decode-side table.
func (d *decoder) value(v reflect.Value, ti *typeInfo) {
	if d.bad() {
		return
	}
	if !v.CanSet() {
		v = settable(v)
	}
	t := ti.t
	switch ti.kind {
	case reflect.Bool:
		v.SetBool(d.r.u8() != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(d.r.i64())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(d.r.u64())
	case reflect.Float32, reflect.Float64:
		v.SetFloat(d.r.f64())
	case reflect.Complex64, reflect.Complex128:
		re := d.r.f64()
		im := d.r.f64()
		v.SetComplex(complex(re, im))
	case reflect.String:
		// A target that holds the image's bytes keeps its string, which
		// is immutable: a restore into a same-shape target decodes names
		// and keys it already has.
		if b := d.r.bytes(); !d.bad() && v.String() != string(b) {
			v.SetString(string(b))
		}
	case reflect.Slice:
		el := ti.elem
		n, ok := d.length(t, el.minBytes)
		if !ok {
			if !d.bad() {
				v.Set(reflect.Zero(t))
			}
			return
		}
		if v.IsNil() || v.Cap() < n {
			v.Set(reflect.MakeSlice(t, n, n))
		} else if v.Len() != n {
			v.Set(v.Slice(0, n))
		}
		switch {
		case el.kind == reflect.Uint8:
			// length checked that n bytes remain unread.
			copy(unsafe.Slice((*byte)(unsafe.Pointer(v.Pointer())), n), d.r.buf[d.r.off:])
			d.r.off += n
			return
		case el.kind == reflect.Float64:
			d.r.f64s(unsafe.Slice((*float64)(unsafe.Pointer(v.Pointer())), n))
			return
		case el.flat:
			d.r.flats(unsafe.Pointer(v.Pointer()), n, el)
			return
		}
		for i := 0; i < n && !d.bad(); i++ {
			d.value(v.Index(i), el)
		}
	case reflect.Array:
		// v was laundered settable above, so it is addressable.
		el := ti.elem
		switch {
		case el.kind == reflect.Uint8:
			for i := 0; i < v.Len(); i++ {
				v.Index(i).SetUint(uint64(d.r.u8()))
			}
			return
		case el.kind == reflect.Float64:
			d.r.f64s(unsafe.Slice((*float64)(unsafe.Pointer(v.UnsafeAddr())), v.Len()))
			return
		case el.flat:
			d.r.flats(unsafe.Pointer(v.UnsafeAddr()), v.Len(), el)
			return
		}
		for i := 0; i < v.Len() && !d.bad(); i++ {
			d.value(v.Index(i), el)
		}
	case reflect.Map:
		n, ok := d.length(t, ti.key.minBytes+ti.elem.minBytes)
		if !ok {
			if !d.bad() {
				v.Set(reflect.Zero(t))
			}
			return
		}
		nm := reflect.MakeMapWithSize(t, n)
		for i := 0; i < n && !d.bad(); i++ {
			k := reflect.New(ti.key.t).Elem()
			d.value(k, ti.key)
			val := reflect.New(ti.elem.t).Elem()
			d.value(val, ti.elem)
			if !d.bad() {
				nm.SetMapIndex(k, val)
			}
		}
		v.Set(nm)
	case reflect.Ptr:
		marker := d.r.u8()
		if d.bad() {
			return
		}
		switch marker {
		case ptrSkip:
			present := d.r.u8() != 0
			if present != !v.IsNil() {
				d.fail("%s: runtime-only pointer presence mismatch (image %v, target %v)", t, present, !v.IsNil())
			}
		case ptrNil:
			v.Set(reflect.Zero(t))
		case ptrNew:
			if v.IsNil() {
				v.Set(reflect.New(ti.elem.t))
			}
			// Capture the concrete pointer for back-references before
			// decoding the pointee (cycles resolve to it).
			cp := reflect.NewAt(ti.elem.t, unsafe.Pointer(v.Pointer()))
			d.ptrs = append(d.ptrs, cp)
			if ti.hooked {
				b := d.r.bytes()
				if d.bad() {
					return
				}
				if err := ptrIface(v).(encoding.BinaryUnmarshaler).UnmarshalBinary(b); err != nil {
					d.fail("unmarshal hook %s: %v", t, err)
				}
				return
			}
			d.value(v.Elem(), ti.elem)
		case ptrRef:
			id := d.r.u64()
			if d.bad() {
				return
			}
			if id >= uint64(len(d.ptrs)) {
				d.fail("dangling pointer reference %d of %d", id, len(d.ptrs))
				return
			}
			p := d.ptrs[id]
			if p.Type() != t {
				d.fail("pointer reference type mismatch: image %s, table %s", t, p.Type())
				return
			}
			v.Set(p)
		default:
			d.fail("bad pointer marker %d", marker)
		}
	case reflect.Interface:
		marker := d.r.u8()
		if d.bad() {
			return
		}
		if marker == 0 {
			v.Set(reflect.Zero(t))
			return
		}
		name := d.r.bytes() // compared, never kept: no string is built
		if d.bad() {
			return
		}
		if v.IsNil() || v.Elem().Type().String() != string(name) {
			held := "nil"
			if !v.IsNil() {
				held = v.Elem().Type().String()
			}
			d.fail("interface %s: image holds %q, target holds %s", t, name, held)
			return
		}
		// Restore-into-same-shape: the target already holds the image's
		// dynamic type, so decode into a copy of its value (reusing its
		// pointee) and store that back.
		dyn := v.Elem()
		tmp := reflect.New(dyn.Type()).Elem()
		tmp.Set(dyn)
		d.value(tmp, infoOf(dyn.Type()))
		v.Set(tmp)
	case reflect.Struct:
		if ti.skip {
			return
		}
		if ti.flat {
			d.r.flat(unsafe.Pointer(v.UnsafeAddr()), ti.plan)
			return
		}
		for i, fi := range ti.fields {
			if d.bad() {
				break
			}
			if fi == nil {
				continue
			}
			d.path = append(d.path, pathFrame{t, i})
			d.value(v.Field(i), fi)
			d.path = d.path[:len(d.path)-1]
		}
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		// Keep the target's value; zero bytes were written.
	default:
		d.fail("unsupported kind %v (%s)", ti.kind, t)
	}
}

// Save serializes root (a non-nil pointer to a simulation object) with
// its header. When root implements Shaped and meta.ShapeKey is empty the
// shape key is recorded automatically. It returns a buffer of its own,
// for callers that keep every image; one that writes an image and drops
// it should keep one buffer and call AppendSave.
func Save(root any, meta Meta) ([]byte, error) {
	img, err := AppendSave(nil, root, meta)
	if err != nil {
		return nil, err
	}
	if cap(img)-len(img) > len(img)/8 {
		// The image outgrew the spare room, or shrank well below the last
		// one: hand back exactly its size, not the doubled or stale buffer.
		img = append(make([]byte, 0, len(img)), img...)
	}
	return img, nil
}

// AppendSave appends root's image, the bytes Save returns, to dst and
// returns the extended buffer, in the encoding.BinaryAppender idiom. A
// caller that passes the last image's buffer back, truncated, writes
// every later image of a steady series into it without allocating one.
// On error it returns dst unchanged.
func AppendSave(dst []byte, root any, meta Meta) ([]byte, error) {
	rv := reflect.ValueOf(root)
	if rv.Kind() != reflect.Ptr || rv.IsNil() {
		return dst, fmt.Errorf("snapshot: save root must be a non-nil pointer, got %T", root)
	}
	if meta.ShapeKey == "" {
		if s, ok := root.(Shaped); ok {
			meta.ShapeKey = s.ShapeKey()
		}
	}
	// The image is framed in place: the header, the payload encoded right
	// after it and the CRC. When dst has less room than the last image of
	// the same root type took, it grows once to that size with 1/16 to
	// spare, so a Save in a steady series allocates its image and little
	// else. The payload's length prefix, reserved at the size the last
	// image's needed, moves the payload only when it needs a byte more or
	// less.
	ti := infoOf(rv.Type())
	ids := ti.ids.Swap(nil)
	if ids == nil {
		m := make(map[ptrKey]uint64, ti.lastPtrs.Load())
		ids = &m
	}
	defer func() {
		clear(*ids)
		ti.ids.Store(ids)
	}()
	e := &encoder{ids: *ids}
	start, last := len(dst), int(ti.lastImage.Load())
	if cap(dst)-start < last {
		// One make, not slices.Grow: append of a made slice allocates
		// twice when the compiler cannot fuse the two, as under -race.
		dst = append(make([]byte, 0, start+last+last/16), dst...)
	}
	e.w.buf, e.w.n = dst[:cap(dst)], start
	e.w.header(rv.Type().String(), meta)
	head := e.w.n
	prefix := uvarintLen(uint64(max(last-(head-start), 0)))
	e.w.grow(prefix)
	e.w.n += prefix
	e.value(rv, ti)
	if e.err != nil {
		return dst[:start], e.err
	}
	n := e.w.n - head - prefix
	if need := uvarintLen(uint64(n)); need != prefix {
		e.w.grow(need - prefix)
		copy(e.w.buf[head+need:], e.w.buf[head+prefix:head+prefix+n])
		e.w.n = head + need + n
		prefix = need
	}
	binary.PutUvarint(e.w.buf[head:], uint64(n))
	e.w.u64(uint64(crc32.ChecksumIEEE(e.w.buf[head+prefix : e.w.n])))
	ti.lastImage.Store(int64(e.w.n - start))
	ti.lastPtrs.Store(int64(len(e.ids)))
	return e.w.written(), nil
}

// header writes everything an image carries before its payload.
func (w *writer) header(rootType string, meta Meta) {
	w.grow(len(magic))
	w.n += copy(w.buf[w.n:], magic)
	w.u8(layoutVersion)
	w.u8(codecVersion)
	w.str(rootType)
	w.str(meta.ShapeKey)
	w.u64(meta.Seed)
	w.str(meta.Revision)
	w.str(meta.Extra)
	w.f64(meta.TimeSec)
}

// readHeader consumes the header and returns the meta, the root type
// name, and the payload (CRC-verified).
func readHeader(data []byte) (Meta, string, []byte, error) {
	var meta Meta
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return meta, "", nil, fmt.Errorf("snapshot: bad magic (not a snapshot file)")
	}
	r := &reader{buf: data, off: len(magic)}
	fv := r.u8()
	cv := r.u8()
	rootType := r.str()
	meta.ShapeKey = r.str()
	meta.Seed = r.u64()
	meta.Revision = r.str()
	meta.Extra = r.str()
	meta.TimeSec = r.f64()
	payload := r.bytes()
	crc := r.u64()
	if r.err != nil {
		return meta, "", nil, r.err
	}
	if fv != layoutVersion {
		return meta, "", nil, fmt.Errorf("snapshot: format version %d, this binary uses %d (state layout changed; re-capture)", fv, layoutVersion)
	}
	if cv != codecVersion {
		return meta, "", nil, fmt.Errorf("snapshot: codec version %d, this binary uses %d", cv, codecVersion)
	}
	if got := uint64(crc32.ChecksumIEEE(payload)); got != crc {
		return meta, "", nil, fmt.Errorf("snapshot: payload CRC mismatch (corrupt image)")
	}
	return meta, rootType, payload, nil
}

// ReadMeta returns the image's header without restoring anything.
func ReadMeta(data []byte) (Meta, error) {
	meta, _, _, err := readHeader(data)
	return meta, err
}

// Load restores an image into root, which must be a non-nil pointer to an
// object constructed from the same configuration (same dynamic type, and
// same ShapeKey when the root implements Shaped).
func Load(data []byte, root any) (Meta, error) {
	meta, rootType, payload, err := readHeader(data)
	if err != nil {
		return meta, err
	}
	rv := reflect.ValueOf(root)
	if rv.Kind() != reflect.Ptr || rv.IsNil() {
		return meta, fmt.Errorf("snapshot: load target must be a non-nil pointer, got %T", root)
	}
	if rv.Type().String() != rootType {
		return meta, fmt.Errorf("snapshot: image holds %s, target is %s", rootType, rv.Type())
	}
	if s, ok := root.(Shaped); ok && meta.ShapeKey != "" {
		if got := s.ShapeKey(); got != meta.ShapeKey {
			return meta, fmt.Errorf("snapshot: shape mismatch:\n  image:  %s\n  target: %s", meta.ShapeKey, got)
		}
	}
	slot := reflect.New(rv.Type()).Elem()
	slot.Set(rv)
	ti := infoOf(rv.Type())
	ptrs := ti.ptrs.Swap(nil)
	if ptrs == nil {
		ptrs = new([]reflect.Value)
	}
	d := &decoder{r: &reader{buf: payload}, ptrs: *ptrs}
	defer func() {
		// The cached table must not keep restored objects reachable.
		clear(d.ptrs)
		*ptrs = d.ptrs[:0]
		ti.ptrs.Store(ptrs)
	}()
	d.value(slot, ti)
	if d.err != nil {
		return meta, d.err
	}
	if d.r.err != nil {
		return meta, d.r.err
	}
	if d.r.off != len(payload) {
		return meta, fmt.Errorf("snapshot: %d trailing bytes after decode (image/target layout skew)", len(payload)-d.r.off)
	}
	if slot.Pointer() != rv.Pointer() {
		return meta, fmt.Errorf("snapshot: decode replaced the root object (image root was nil?)")
	}
	return meta, nil
}
