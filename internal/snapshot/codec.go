// Binary primitives for the snapshot wire format: varint-packed integers,
// raw IEEE-754 float bits, and length-prefixed byte strings. The encoding
// is deliberately boring — every value has exactly one representation, so
// Save→Load→Save is byte-identical by construction and image size tracks
// real state growth, not format noise.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"unsafe"
)

// writer encodes primitives into buf by index; the bytes written are
// buf[:n]. Only grow replaces buf, doubling it: an image is megabytes
// built from writes of a few bytes each. A write stores an offset, never
// a slice header, so it pays no GC write barrier while the collector
// marks.
type writer struct {
	buf []byte // all of it usable: len(buf) is the capacity
	n   int
}

// written returns the bytes written so far.
func (w *writer) written() []byte { return w.buf[:w.n] }

// grow makes room for n more bytes.
func (w *writer) grow(n int) {
	if len(w.buf)-w.n < n {
		w.realloc(n)
	}
}

func (w *writer) realloc(n int) {
	c := 2 * len(w.buf)
	if c < w.n+n {
		c = w.n + n
	}
	if c < 512 {
		c = 512
	}
	b := make([]byte, c)
	copy(b, w.buf[:w.n])
	w.buf = b
}

// The put* primitives write into room a grow already made.

func (w *writer) putU8(b byte) {
	w.buf[w.n] = b
	w.n++
}

func (w *writer) putU64(v uint64) { w.n += binary.PutUvarint(w.buf[w.n:], v) }

func (w *writer) putI64(v int64) { w.n += binary.PutVarint(w.buf[w.n:], v) }

// putF64 writes raw IEEE-754 bits, fixed 8 bytes little-endian: float
// state must round-trip bit-exactly (including -0 and NaN payloads), and
// varint packing would bloat typical mantissas.
func (w *writer) putF64(v float64) {
	binary.LittleEndian.PutUint64(w.buf[w.n:], math.Float64bits(v))
	w.n += 8
}

func (w *writer) u8(b byte) {
	w.grow(1)
	w.putU8(b)
}

func (w *writer) u64(v uint64) {
	w.grow(uvarintLen(v))
	w.putU64(v)
}

func (w *writer) i64(v int64) {
	w.grow(uvarintLen(uint64(v<<1) ^ uint64(v>>63))) // zig-zag, as PutVarint
	w.putI64(v)
}

// uvarintLen is the byte count of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func (w *writer) f64(v float64) {
	w.grow(8)
	w.putF64(v)
}

// f64s bulk-writes a float64 run — the same bytes n f64 calls would
// produce, without per-element call overhead. Float arrays dominate a
// chip image, so the walker routes them here.
func (w *writer) f64s(fs []float64) {
	w.grow(8 * len(fs))
	b := w.buf[w.n : w.n+8*len(fs)]
	for i, f := range fs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
	}
	w.n += len(b)
}

// raw writes b with no length prefix.
func (w *writer) raw(b []byte) {
	w.grow(len(b))
	w.n += copy(w.buf[w.n:], b)
}

func (w *writer) bytes(b []byte) {
	w.u64(uint64(len(b)))
	w.raw(b)
}

func (w *writer) str(s string) {
	w.u64(uint64(len(s)))
	w.grow(len(s))
	w.n += copy(w.buf[w.n:], s)
}

// flat writes the fields of the flat struct at p in plan order: the bytes
// the reflective walk writes for it field by field. It makes room for
// the struct's longest encoding once, so no field checks for room.
func (w *writer) flat(p unsafe.Pointer, ti *typeInfo) {
	w.grow(ti.flatMax)
	for _, f := range ti.plan {
		q := unsafe.Add(p, f.off)
		switch f.kind {
		case reflect.Bool:
			var b byte
			if *(*bool)(q) {
				b = 1
			}
			w.putU8(b)
		case reflect.Int:
			w.putI64(int64(*(*int)(q)))
		case reflect.Int8:
			w.putI64(int64(*(*int8)(q)))
		case reflect.Int16:
			w.putI64(int64(*(*int16)(q)))
		case reflect.Int32:
			w.putI64(int64(*(*int32)(q)))
		case reflect.Int64:
			w.putI64(*(*int64)(q))
		case reflect.Uint:
			w.putU64(uint64(*(*uint)(q)))
		case reflect.Uint8:
			w.putU64(uint64(*(*uint8)(q)))
		case reflect.Uint16:
			w.putU64(uint64(*(*uint16)(q)))
		case reflect.Uint32:
			w.putU64(uint64(*(*uint32)(q)))
		case reflect.Uint64:
			w.putU64(*(*uint64)(q))
		case reflect.Float32:
			w.putF64(float64(*(*float32)(q)))
		case reflect.Float64:
			w.putF64(*(*float64)(q))
		}
	}
}

// flats writes n consecutive flat structs of type el starting at p.
func (w *writer) flats(p unsafe.Pointer, n int, el *typeInfo) {
	for i := 0; i < n; i++ {
		w.flat(unsafe.Add(p, uintptr(i)*el.size), el)
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
