// Binary primitives for the snapshot wire format: varint-packed integers,
// raw IEEE-754 float bits, and length-prefixed byte strings. The encoding
// is deliberately boring — every value has exactly one representation, so
// Save→Load→Save is byte-identical by construction and the size budget
// (SNAP_BYTES_BUDGET in CI) tracks real state growth, not format noise.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"unsafe"
)

// writer appends primitives to a buffer that grows by doubling: an image
// is megabytes built from writes of a few bytes each, and append's 1.25x
// steps for large slices would copy it many times over.
type writer struct {
	buf []byte
}

// grow makes room for n more bytes.
func (w *writer) grow(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.realloc(n)
	}
}

func (w *writer) realloc(n int) {
	c := 2 * cap(w.buf)
	if c < len(w.buf)+n {
		c = len(w.buf) + n
	}
	if c < 512 {
		c = 512
	}
	b := make([]byte, len(w.buf), c)
	copy(b, w.buf)
	w.buf = b
}

func (w *writer) u8(b byte) {
	w.grow(1)
	w.buf = append(w.buf, b)
}

func (w *writer) u64(v uint64) {
	w.grow(uvarintLen(v))
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *writer) i64(v int64) {
	w.grow(uvarintLen(uint64(v<<1) ^ uint64(v>>63))) // zig-zag, as AppendVarint
	w.buf = binary.AppendVarint(w.buf, v)
}

// uvarintLen is the byte count of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// f64 writes raw IEEE-754 bits, fixed 8 bytes little-endian: float state
// must round-trip bit-exactly (including -0 and NaN payloads), and varint
// packing would bloat typical mantissas.
func (w *writer) f64(v float64) {
	w.grow(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// f64s bulk-writes a float64 run — the same bytes n f64 calls would
// produce, without per-element call overhead. Float arrays dominate a
// chip image, so the walker routes them here.
func (w *writer) f64s(fs []float64) {
	w.grow(8 * len(fs))
	off := len(w.buf)
	w.buf = w.buf[:off+8*len(fs)]
	for _, f := range fs {
		binary.LittleEndian.PutUint64(w.buf[off:], math.Float64bits(f))
		off += 8
	}
}

// raw appends b with no length prefix.
func (w *writer) raw(b []byte) {
	w.grow(len(b))
	w.buf = append(w.buf, b...)
}

func (w *writer) bytes(b []byte) {
	w.u64(uint64(len(b)))
	w.raw(b)
}

func (w *writer) str(s string) {
	w.u64(uint64(len(s)))
	w.grow(len(s))
	w.buf = append(w.buf, s...)
}

// flat writes the fields of the flat struct at p in plan order: the bytes
// the reflective walk writes for it field by field.
func (w *writer) flat(p unsafe.Pointer, plan []flatField) {
	for _, f := range plan {
		q := unsafe.Add(p, f.off)
		switch f.kind {
		case reflect.Bool:
			var b byte
			if *(*bool)(q) {
				b = 1
			}
			w.u8(b)
		case reflect.Int:
			w.i64(int64(*(*int)(q)))
		case reflect.Int8:
			w.i64(int64(*(*int8)(q)))
		case reflect.Int16:
			w.i64(int64(*(*int16)(q)))
		case reflect.Int32:
			w.i64(int64(*(*int32)(q)))
		case reflect.Int64:
			w.i64(*(*int64)(q))
		case reflect.Uint:
			w.u64(uint64(*(*uint)(q)))
		case reflect.Uint8:
			w.u64(uint64(*(*uint8)(q)))
		case reflect.Uint16:
			w.u64(uint64(*(*uint16)(q)))
		case reflect.Uint32:
			w.u64(uint64(*(*uint32)(q)))
		case reflect.Uint64:
			w.u64(*(*uint64)(q))
		case reflect.Float32:
			w.f64(float64(*(*float32)(q)))
		case reflect.Float64:
			w.f64(*(*float64)(q))
		}
	}
}

// flats writes n consecutive flat structs of type el starting at p.
func (w *writer) flats(p unsafe.Pointer, n int, el *typeInfo) {
	for i := 0; i < n; i++ {
		w.flat(unsafe.Add(p, uintptr(i)*el.size), el.plan)
	}
}

// reader consumes the writer's output with a sticky error: after the
// first malformed read every subsequent read returns zero, so decode
// loops stay linear and check r.err once per object.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: offset %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

// unread is the count of payload bytes not yet consumed.
func (r *reader) unread() uint64 { return uint64(len(r.buf) - r.off) }

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// f64s bulk-reads len(fs) float64 values into fs, the reader twin of
// writer.f64s.
func (r *reader) f64s(fs []float64) {
	if r.err != nil {
		return
	}
	if r.off+8*len(fs) > len(r.buf) {
		r.fail("truncated %d-float64 run", len(fs))
		return
	}
	for i := range fs {
		fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
		r.off += 8
	}
}

func (r *reader) bytes() []byte {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if r.unread() < n {
		r.fail("truncated %d-byte string", n)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *reader) str() string { return string(r.bytes()) }

// flat reads the fields of the flat struct at p in plan order, the reader
// twin of writer.flat. Like the reflective walk, it stops after the first
// failed read.
func (r *reader) flat(p unsafe.Pointer, plan []flatField) {
	for _, f := range plan {
		if r.err != nil {
			return
		}
		q := unsafe.Add(p, f.off)
		switch f.kind {
		case reflect.Bool:
			*(*bool)(q) = r.u8() != 0
		case reflect.Int:
			*(*int)(q) = int(r.i64())
		case reflect.Int8:
			*(*int8)(q) = int8(r.i64())
		case reflect.Int16:
			*(*int16)(q) = int16(r.i64())
		case reflect.Int32:
			*(*int32)(q) = int32(r.i64())
		case reflect.Int64:
			*(*int64)(q) = r.i64()
		case reflect.Uint:
			*(*uint)(q) = uint(r.u64())
		case reflect.Uint8:
			*(*uint8)(q) = uint8(r.u64())
		case reflect.Uint16:
			*(*uint16)(q) = uint16(r.u64())
		case reflect.Uint32:
			*(*uint32)(q) = uint32(r.u64())
		case reflect.Uint64:
			*(*uint64)(q) = r.u64()
		case reflect.Float32:
			*(*float32)(q) = float32(r.f64())
		case reflect.Float64:
			*(*float64)(q) = r.f64()
		}
	}
}

// flats reads n consecutive flat structs of type el into p. A struct with
// no fields reads nothing, however large a length the image claims.
func (r *reader) flats(p unsafe.Pointer, n int, el *typeInfo) {
	if len(el.plan) == 0 {
		return
	}
	for i := 0; i < n && r.err == nil; i++ {
		r.flat(unsafe.Add(p, uintptr(i)*el.size), el.plan)
	}
}
