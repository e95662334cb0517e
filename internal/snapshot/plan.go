package snapshot

import (
	"encoding/binary"
	"reflect"
	"sync"
	"sync/atomic"
)

// typeInfo is what the walker needs to know about one type, computed once
// per reflect.Type by infoOf and shared by every Save and Load, so the
// walk itself asks no type questions beyond the cached answers.
type typeInfo struct {
	t    reflect.Type
	kind reflect.Kind
	size uintptr

	elem *typeInfo // Ptr, Slice, Array: element type; Map: value type
	key  *typeInfo // Map: key type
	// fields are a struct's field types in declaration order, nil for a
	// field tagged `snapshot:"-"`: a cache, which writes no bytes and
	// keeps the target's value.
	fields []*typeInfo

	// flat marks a struct whose fields are all bool, int, uint or float:
	// it encodes and decodes by offset, following plan, with the same
	// bytes the reflective walk writes field by field. flatMax is the
	// most bytes that encoding takes.
	flat    bool
	plan    []flatField
	flatMax int

	// minBytes is the fewest payload bytes a value of the type encodes
	// to. Load refuses a slice or map length that the unread payload
	// cannot hold at this many bytes per element.
	minBytes uint64

	skip    bool // Struct: runtime-only type, no bytes; Ptr: presence only
	hooked  bool // Ptr: serializes through its BinaryAppender pair
	keyPtrs bool // Map: key type contains pointers

	// lastImage and lastPtrs are the image size and identity-table size
	// of the last Save with a root of this type, which size the next
	// one's buffer and, when no cached table is free, its table.
	lastImage, lastPtrs atomic.Int64

	// ids and ptrs cache the identity tables of Save and Load with a root
	// of this type, cleared, so the next call reuses their storage. A call
	// takes the table with Swap, so two concurrent calls never share one,
	// and one that finds none builds its own.
	ids  atomic.Pointer[map[ptrKey]uint64]
	ptrs atomic.Pointer[[]reflect.Value]
}

// flatField is one scalar field of a flat struct.
type flatField struct {
	off  uintptr
	kind reflect.Kind
}

var (
	infos   sync.Map // reflect.Type → *typeInfo, complete entries only
	infosMu sync.Mutex
)

// infoOf returns the cached facts for t, building them (and those of
// every type reachable from t) on first use.
func infoOf(t reflect.Type) *typeInfo {
	if ti, ok := infos.Load(t); ok {
		return ti.(*typeInfo)
	}
	infosMu.Lock()
	defer infosMu.Unlock()
	building := map[reflect.Type]*typeInfo{}
	ti := buildInfo(t, building)
	// Publish only once the whole graph is filled in: a recursive type's
	// entries point at each other before they are complete.
	for bt, bi := range building {
		infos.Store(bt, bi)
	}
	return ti
}

func buildInfo(t reflect.Type, building map[reflect.Type]*typeInfo) *typeInfo {
	if ti, ok := infos.Load(t); ok {
		return ti.(*typeInfo)
	}
	if ti, ok := building[t]; ok {
		return ti // a pointer cycle back to a type under construction
	}
	ti := &typeInfo{t: t, kind: t.Kind(), size: t.Size()}
	building[t] = ti
	switch ti.kind {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.String, reflect.Slice, reflect.Map, reflect.Ptr, reflect.Interface:
		ti.minBytes = 1 // one byte, a varint, a length prefix or a marker
	case reflect.Float32, reflect.Float64:
		ti.minBytes = 8
	case reflect.Complex64, reflect.Complex128:
		ti.minBytes = 16
	}
	switch ti.kind {
	case reflect.Ptr:
		ti.skip = skipPtrTypes[t.String()]
		ti.hooked = hooked(t)
		ti.elem = buildInfo(t.Elem(), building)
	case reflect.Slice:
		ti.elem = buildInfo(t.Elem(), building)
	case reflect.Array:
		ti.elem = buildInfo(t.Elem(), building)
		ti.minBytes = uint64(t.Len()) * ti.elem.minBytes
	case reflect.Map:
		ti.key = buildInfo(t.Key(), building)
		ti.elem = buildInfo(t.Elem(), building)
		ti.keyPtrs = keyHasPointers(t.Key())
	case reflect.Struct:
		if skipStructTypes[t.String()] {
			ti.skip = true
			return ti
		}
		ti.fields = make([]*typeInfo, t.NumField())
		ti.flat = true
		for i := range ti.fields {
			f := t.Field(i)
			if f.Tag.Get("snapshot") == "-" {
				continue
			}
			fi := buildInfo(f.Type, building)
			ti.fields[i] = fi
			ti.minBytes += fi.minBytes
			if flatKind(fi.kind) {
				ti.plan = append(ti.plan, flatField{off: f.Offset, kind: fi.kind})
				ti.flatMax += flatMaxBytes(fi.kind)
			} else {
				ti.flat = false
			}
		}
		if !ti.flat {
			ti.plan = nil
		}
	}
	return ti
}

// flatMaxBytes is the longest encoding of a flat field of kind k: a
// bool's byte, a float's 8 bytes, or an integer's varint.
func flatMaxBytes(k reflect.Kind) int {
	switch k {
	case reflect.Bool:
		return 1
	case reflect.Float32, reflect.Float64:
		return 8
	}
	return binary.MaxVarintLen64
}

// flatKind reports whether a field of kind k may appear in a flat struct.
func flatKind(k reflect.Kind) bool {
	switch k {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}
