// Package tsdb is the simulator's OCC-style time-series store: fixed
// capacity, multi-resolution, zero steady-state allocation. It models what
// the POWER9 OCC measurement study describes a production on-chip
// telemetry plane doing — keeping bounded sensor histories at several
// fixed rates rather than unbounded logs — and is the storage layer the
// fleet telemetry plane (obs recorder integration, health detectors, the
// amesterd HTTP API) is built on.
//
// A Series holds one resolution level per Spec entry (by default 1 ms,
// 32 ms and 1.024 s windows, each 32x the previous). Every level is an
// independent preallocated ring of aggregate windows {count, sum, min,
// max, last}; a Push folds the sample into the current window of every
// level, so coarse levels retain history long after the fine ring has
// wrapped — downsample-on-overwrite, memory bounded at any horizon. A
// ring's capacity is preallocated and its slice reaches only as far as
// the newest window it has opened, so an image of a young series holds
// its history, not its reserved capacity.
//
// Windows start at floor multiples of their width, and Fill's grid points
// are the stride multiples, so times before 0 window as pushes would.
//
// Determinism contract: a series' contents are a pure function of the
// (time, value) sequence pushed into it. The macro-leap and sampled
// stepping lanes do not push per-step samples during a leap; they call
// Fill, which materializes exactly the windows a per-grid-point Push
// sequence would have produced (analytic backfill). A fleet view folds
// every node's series into one set of windows per level, once per
// recorder Snapshot (internal/obs), through FoldInto and MergeWindows in
// a caller-fixed order (sorted shard name, then registration). Counts
// and sums add, min/max fold and last is resolved by its timestamp, so
// regrouping the folds moves only Sum's float rounding; with the order
// fixed as well, the fleet view is bit-identical at any worker count.
package tsdb

import "fmt"

// LevelSpec is one resolution level: windows of WidthUS microseconds, the
// newest Buckets of them retained.
type LevelSpec struct {
	WidthUS int64
	Buckets int
}

// Spec lists a series' levels, finest first. Widths must be strictly
// increasing and each an integer multiple of the previous so windows nest.
type Spec struct {
	Levels []LevelSpec
}

// DefaultSpec is the standard chip-telemetry shape: 1 ms (one micro-step)
// windows for half a second of full-rate history, 32 ms (one firmware
// tick) for ~16 s, and 1.024 s for ~8.7 min.
func DefaultSpec() Spec {
	return Spec{Levels: []LevelSpec{
		{WidthUS: 1_000, Buckets: 512},
		{WidthUS: 32_000, Buckets: 512},
		{WidthUS: 1_024_000, Buckets: 512},
	}}
}

// CompactSpec is the fleet-scale shape: same widths, 64 buckets per
// level, ~9 KiB per series so a 4096-node fleet with a handful of series
// per node stays tens of megabytes.
func CompactSpec() Spec {
	return Spec{Levels: []LevelSpec{
		{WidthUS: 1_000, Buckets: 64},
		{WidthUS: 32_000, Buckets: 64},
		{WidthUS: 1_024_000, Buckets: 64},
	}}
}

// Validate checks the nesting rules.
func (s Spec) Validate() error {
	if len(s.Levels) == 0 {
		return fmt.Errorf("tsdb: spec has no levels")
	}
	prev := int64(0)
	for i, l := range s.Levels {
		if l.WidthUS <= 0 || l.Buckets <= 0 {
			return fmt.Errorf("tsdb: level %d: non-positive width or buckets", i)
		}
		if i > 0 {
			if l.WidthUS <= prev || l.WidthUS%prev != 0 {
				return fmt.Errorf("tsdb: level %d width %dus does not nest over %dus", i, l.WidthUS, prev)
			}
		}
		prev = l.WidthUS
	}
	return nil
}

// Window is one aggregate bucket. Mean is Sum/Cnt, computed at render
// time. Last is the value at LastUS, the newest sample time folded in;
// keying Last by its timestamp, not by fold order, lets windows merge in
// any grouping.
type Window struct {
	StartUS int64
	Cnt     int64
	Sum     float64
	Min     float64
	Max     float64
	Last    float64
	LastUS  int64
}

// Mean returns the window average (0 for an empty window).
func (w Window) Mean() float64 {
	if w.Cnt == 0 {
		return 0
	}
	return w.Sum / float64(w.Cnt)
}

// fold merges k samples of value v, the newest at tUS, into the window.
func (w *Window) fold(v float64, tUS, k int64) {
	if w.Cnt == 0 || v < w.Min {
		w.Min = v
	}
	if w.Cnt == 0 || v > w.Max {
		w.Max = v
	}
	if w.Cnt == 0 || tUS >= w.LastUS {
		w.Last = v
		w.LastUS = tUS
	}
	w.Cnt += k
	w.Sum += float64(k) * v
}

// foldWindow merges another window covering the same StartUS.
func (w *Window) foldWindow(o Window) {
	if o.Cnt == 0 {
		return
	}
	if w.Cnt == 0 {
		*w = o
		return
	}
	if o.Min < w.Min {
		w.Min = o.Min
	}
	if o.Max > w.Max {
		w.Max = o.Max
	}
	if o.LastUS >= w.LastUS {
		w.Last = o.Last
		w.LastUS = o.LastUS
	}
	w.Cnt += o.Cnt
	w.Sum += o.Sum
}

// level is one resolution ring. Windows are sparse — a window exists only
// if a sample landed in it — and stored oldest-first from (head-n+1)
// through head, head being the current (newest) window. The ring's
// capacity, the level's Buckets, is preallocated, and its length grows
// as windows open: until the ring first wraps, the slice ends at head.
// Index 0 is in it from the start, empty until the ring wraps onto it,
// because the first window opens at index 1.
type level struct {
	widthUS int64
	endUS   int64 // exclusive end of the head window; meaningful when n > 0
	win     []Window
	head    int // index of the newest window; valid when n > 0
	n       int // live windows, <= cap(win)
}

// open moves the head to a new window starting at startUS, evicting the
// oldest when full, and returns it for the caller to write whole.
func (l *level) open(startUS int64) *Window {
	l.head++
	if l.head == len(l.win) {
		if l.head < cap(l.win) {
			l.win = l.win[:l.head+1]
		} else {
			l.head = 0
		}
	}
	if l.n < cap(l.win) {
		l.n++
	}
	l.endUS = startUS + l.widthUS
	return &l.win[l.head]
}

// floorTo rounds t down to a multiple of w > 0. t - t%w alone rounds a
// negative t up, toward zero.
func floorTo(t, w int64) int64 {
	r := t % w
	if r < 0 {
		r += w
	}
	return t - r
}

// push folds one sample. Time must be monotonic (simulated time is), so
// the steady-state test is one compare against the cached window end —
// the per-sample rounding is only paid on rollover.
func (l *level) push(tUS int64, v float64) {
	if l.n == 0 || tUS >= l.endUS {
		start := floorTo(tUS, l.widthUS)
		*l.open(start) = Window{StartUS: start}
	}
	l.win[l.head].fold(v, tUS, 1)
}

// fill materializes the windows that a Push at value v for every grid
// point g in [first, last] (step strideUS, all stride multiples) would
// have produced, skipping windows the ring would immediately have
// evicted. Allocation-free; O(buckets) worst case.
func (l *level) fill(first, last, strideUS int64, v float64) {
	if strideUS > l.widthUS {
		// Sparse grid: each point opens a window of its own and the
		// windows between points stay empty, so the ring keeps the
		// newest cap(win) points rather than the newest cap(win) widths.
		if n := (last-first)/strideUS + 1; n > int64(cap(l.win)) {
			first += (n - int64(cap(l.win))) * strideUS
		}
		for g := first; g <= last; g += strideUS {
			l.push(g, v)
		}
		return
	}
	// Dense grid: every window from first's to last's holds a point.
	startF := floorTo(first, l.widthUS)
	startL := floorTo(last, l.widthUS)
	ws := startF
	if span := (startL-startF)/l.widthUS + 1; span > int64(cap(l.win)) {
		// Older windows than the ring retains would be evicted unread;
		// coarser levels (filled independently) keep that history.
		ws = startL - int64(cap(l.win)-1)*l.widthUS
	}
	// p is the next grid point to record: first, or past evicted windows
	// the first grid point at or after ws.
	p := first
	if ws > first {
		p += (ws - first + strideUS - 1) / strideUS * strideUS
	}
	// Width is per strides plus rem. A window inside [first, last] whose
	// first point p lies less than a stride past its start holds per
	// points, one more when p lies less than rem past it, so only the
	// span's two end windows count theirs by division.
	per, rem := l.widthUS/strideUS, l.widthUS%strideUS
	for ; ws <= startL; ws += l.widthUS {
		end := ws + l.widthUS - 1
		k := per
		switch {
		case p-ws >= strideUS || end > last:
			k = (min(end, last)-p)/strideUS + 1
		case p-ws < rem:
			k++
		}
		hi := p + (k-1)*strideUS
		if l.n > 0 && ws <= l.win[l.head].StartUS {
			// Only the span's first window can already hold samples.
			l.win[l.head].fold(v, hi, k)
		} else {
			// A new window is what fold makes of an empty one, each field
			// stored once (a Window literal would go through a stack copy).
			// Its Sum is 0 + k·v, as fold's, so v = −0 sums to +0.
			w := l.open(ws)
			w.StartUS, w.Cnt, w.Sum, w.LastUS = ws, k, 0+float64(k)*v, hi
			w.Min, w.Max, w.Last = v, v, v
		}
		p = hi + strideUS
	}
}

// live returns the level's live windows, oldest first, as the two
// stretches of the ring they occupy; older is empty unless the live
// windows wrap past the ring's end.
func (l *level) live() (older, newer []Window) {
	if l.n == 0 {
		return nil, nil
	}
	first := l.head - l.n + 1
	if first < 0 {
		return l.win[first+cap(l.win):], l.win[:l.head+1]
	}
	return nil, l.win[first : l.head+1]
}

// Series is one named multi-resolution time-series. All storage is
// preallocated at construction; Push and Fill never allocate. A level's
// ring slice reaches only as far as the windows it has opened, so a
// snapshot image of the series (internal/snapshot) carries the history
// that exists, not the capacity reserved for it. A restore reslices the
// target's preallocated rings, so the target must be a series of the
// same Spec. A nil *Series is valid everywhere and records nothing, so
// call sites thread an unconditional handle. A Series must only be
// written by its owning goroutine (same ownership rule as an obs
// recorder shard).
type Series struct {
	name   string
	levels []level
	pushes int64
}

// NewSeries builds a series with every ring preallocated. Panics on an
// invalid spec — specs are static configuration, not data.
func NewSeries(name string, spec Spec) *Series {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	s := &Series{name: name, levels: make([]level, len(spec.Levels))}
	for i, ls := range spec.Levels {
		s.levels[i] = level{widthUS: ls.WidthUS, win: make([]Window, 1, ls.Buckets)}
	}
	return s
}

// Name returns the series name ("" on nil).
func (s *Series) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Spec reconstructs the series' level shape (zero Spec on nil).
func (s *Series) Spec() Spec {
	if s == nil {
		return Spec{}
	}
	spec := Spec{Levels: make([]LevelSpec, len(s.levels))}
	for i := range s.levels {
		spec.Levels[i] = LevelSpec{WidthUS: s.levels[i].widthUS, Buckets: cap(s.levels[i].win)}
	}
	return spec
}

// Levels returns the resolution count (0 on nil).
func (s *Series) Levels() int {
	if s == nil {
		return 0
	}
	return len(s.levels)
}

// Pushes returns the total samples recorded, Fill grid points included.
func (s *Series) Pushes() int64 {
	if s == nil {
		return 0
	}
	return s.pushes
}

// Push records one sample at tUS microseconds of simulated time into
// every level. Nil-safe, allocation-free, O(levels).
func (s *Series) Push(tUS int64, v float64) {
	if s == nil {
		return
	}
	s.pushes++
	for i := range s.levels {
		s.levels[i].push(tUS, v)
	}
}

// Fill backfills the span a macro-leap or fast-forward skipped: it
// records value v at every strideUS grid point g (a stride multiple) with
// t0US < g <= t1US, producing the windows the equivalent Push sequence
// would while touching at most O(buckets) windows per level. Counts,
// minima, maxima and last values are bit-identical; a window's Sum adds
// k·v in one rounding where k pushes round k times, so it is
// bit-identical when those partial sums are exact, as for values with few
// significant bits, and otherwise within k roundings.
// Nil-safe, allocation-free.
func (s *Series) Fill(t0US, t1US int64, v float64, strideUS int64) {
	if s == nil || strideUS <= 0 || t1US <= t0US {
		return
	}
	first := floorTo(t0US, strideUS) + strideUS // smallest grid point > t0US
	last := floorTo(t1US, strideUS)             // largest grid point <= t1US
	if last < first {
		return
	}
	s.pushes += (last-first)/strideUS + 1
	for i := range s.levels {
		s.levels[i].fill(first, last, strideUS, v)
	}
}

// AppendWindows appends level li's live windows, oldest first, to dst and
// returns it. Nil-safe; the result is a copy, safe to hold across writes.
// When dst lacks room it grows once, to exactly the size needed.
func (s *Series) AppendWindows(dst []Window, li int) []Window {
	if s == nil || li < 0 || li >= len(s.levels) {
		return dst
	}
	l := &s.levels[li]
	if l.n == 0 {
		return dst
	}
	if cap(dst)-len(dst) < l.n {
		grown := make([]Window, len(dst), len(dst)+l.n)
		copy(grown, dst)
		dst = grown
	}
	older, newer := l.live()
	return append(append(dst, older...), newer...)
}

// FoldInto folds level li's live windows into dst and returns the result:
// MergeWindows(dst, s.AppendWindows(nil, li)), reading the ring in place,
// so folding a series into an aligned view allocates nothing. Nil-safe.
func (s *Series) FoldInto(dst []Window, li int) []Window {
	if s == nil || li < 0 || li >= len(s.levels) {
		return dst
	}
	l := &s.levels[li]
	older, newer := l.live()
	switch {
	case l.n == 0:
		return dst
	case len(dst) == 0:
		return s.AppendWindows(dst, li)
	case l.n <= len(dst):
		if i, ok := alignedFrom(dst, older, 0); ok {
			if _, ok := alignedFrom(dst, newer, i); ok {
				foldAligned(dst, newer, foldAligned(dst, older, 0))
				return dst
			}
		}
	}
	return MergeWindows(dst, s.AppendWindows(nil, li))
}

// HasSpec reports whether the series' level shape is spec's, the Spec
// that Spec() would build, without building it. A nil series has no
// levels.
func (s *Series) HasSpec(spec Spec) bool {
	if s.Levels() != len(spec.Levels) {
		return false
	}
	for i, ls := range spec.Levels {
		if l := &s.levels[i]; l.widthUS != ls.WidthUS || cap(l.win) != ls.Buckets {
			return false
		}
	}
	return true
}

// MergeWindows folds src into dst, both oldest-first window slices of the
// same level shape, and returns the merged oldest-first slice. Aligned
// windows (same StartUS) fold aggregate-wise. Regrouping the merges of
// several window sets changes only Sum, within float rounding; reordering
// them can also change which Last wins a LastUS tie (the later merge
// does). A fleet view merges in a fixed order, which makes it
// bit-identical at any worker count. When every src window has a dst
// window with the same
// StartUS — the fleet case, since all chips push on one grid — the fold
// happens in place in dst and allocates nothing; otherwise the merge is
// built in a new slice and dst is left as it was.
func MergeWindows(dst, src []Window) []Window {
	if len(src) == 0 {
		return dst
	}
	if len(dst) == 0 {
		return append(dst, src...)
	}
	if len(src) <= len(dst) {
		if _, ok := alignedFrom(dst, src, 0); ok {
			foldAligned(dst, src, 0)
			return dst
		}
	}
	merged := make([]Window, 0, len(dst)+len(src))
	i, j := 0, 0
	for i < len(dst) && j < len(src) {
		switch {
		case dst[i].StartUS < src[j].StartUS:
			merged = append(merged, dst[i])
			i++
		case dst[i].StartUS > src[j].StartUS:
			merged = append(merged, src[j])
			j++
		default:
			w := dst[i]
			w.foldWindow(src[j])
			merged = append(merged, w)
			i, j = i+1, j+1
		}
	}
	merged = append(merged, dst[i:]...)
	merged = append(merged, src[j:]...)
	return merged
}

// alignedFrom reports whether every src window's StartUS also starts a
// dst window at index i or later, and returns the index after the last
// match. Both slices are oldest-first with strictly increasing starts.
func alignedFrom(dst, src []Window, i int) (int, bool) {
	for _, w := range src {
		for i < len(dst) && dst[i].StartUS < w.StartUS {
			i++
		}
		if i == len(dst) || dst[i].StartUS != w.StartUS {
			return i, false
		}
		i++
	}
	return i, true
}

// foldAligned folds each src window into the dst window with its StartUS,
// searching from index i, and returns the index after the last fold.
// alignedFrom must have accepted src at i.
func foldAligned(dst, src []Window, i int) int {
	for _, w := range src {
		for dst[i].StartUS != w.StartUS {
			i++
		}
		dst[i].foldWindow(w)
		i++
	}
	return i
}
