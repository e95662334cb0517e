package tsdb

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

func smallSpec() Spec {
	return Spec{Levels: []LevelSpec{
		{WidthUS: 1_000, Buckets: 8},
		{WidthUS: 4_000, Buckets: 8},
		{WidthUS: 16_000, Buckets: 8},
	}}
}

func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("DefaultSpec: %v", err)
	}
	if err := CompactSpec().Validate(); err != nil {
		t.Fatalf("CompactSpec: %v", err)
	}
	bad := []Spec{
		{},
		{Levels: []LevelSpec{{WidthUS: 0, Buckets: 4}}},
		{Levels: []LevelSpec{{WidthUS: 1000, Buckets: 0}}},
		{Levels: []LevelSpec{{WidthUS: 1000, Buckets: 4}, {WidthUS: 1500, Buckets: 4}}},
		{Levels: []LevelSpec{{WidthUS: 2000, Buckets: 4}, {WidthUS: 1000, Buckets: 4}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
}

func TestWindowAggregates(t *testing.T) {
	s := NewSeries("v", smallSpec())
	// Three samples inside one 1 ms window.
	s.Push(100, 3.0)
	s.Push(400, 1.0)
	s.Push(900, 2.0)
	w := s.AppendWindows(nil, 0)
	if len(w) != 1 {
		t.Fatalf("want 1 window, got %d", len(w))
	}
	got := w[0]
	if got.StartUS != 0 || got.Cnt != 3 || got.Min != 1 || got.Max != 3 || got.Last != 2 || got.LastUS != 900 {
		t.Fatalf("bad aggregates: %+v", got)
	}
	if got.Sum != 6 || got.Mean() != 2 {
		t.Fatalf("bad sum/mean: %+v", got)
	}
}

func TestRollupRetainsEvictedHistory(t *testing.T) {
	s := NewSeries("v", smallSpec())
	// 40 samples at 1 ms: level 0 (8 buckets) wraps, level 1 (4 ms x 8 =
	// 32 ms) retains most, level 2 (16 ms x 8) retains all.
	for i := 0; i < 40; i++ {
		s.Push(int64(i)*1_000, float64(i))
	}
	l0 := s.AppendWindows(nil, 0)
	if len(l0) != 8 {
		t.Fatalf("level 0: want 8 windows, got %d", len(l0))
	}
	if l0[0].StartUS != 32_000 || l0[7].StartUS != 39_000 {
		t.Fatalf("level 0 span wrong: %+v .. %+v", l0[0], l0[7])
	}
	l2 := s.AppendWindows(nil, 2)
	var cnt int64
	for _, w := range l2 {
		cnt += w.Cnt
	}
	if cnt != 40 {
		t.Fatalf("level 2 lost history: %d samples retained", cnt)
	}
	if l2[0].Min != 0 || l2[len(l2)-1].Max != 39 {
		t.Fatalf("level 2 aggregates wrong: %+v", l2)
	}
}

// TestFillMatchesPushes is the core backfill invariant: Fill over a span
// produces bit-identical windows to pushing every grid point.
func TestFillMatchesPushes(t *testing.T) {
	cases := []struct {
		t0, t1 int64
		v      float64
	}{
		{0, 10_000, 2.5},                    // aligned short span
		{250, 10_250, 2.5},                  // unaligned ends
		{3_000, 3_900, 2.5},                 // sub-stride span, no grid point
		{0, 200_000, 2.5},                   // wraps every level-0 ring
		{7_777, 1_000_000, 2.5},             // long unaligned span
		{250, 40_250, math.Copysign(0, -1)}, // −0: a new window's Sum is +0, as pushes make it
	}
	for _, tc := range cases {
		a := NewSeries("a", smallSpec())
		b := NewSeries("b", smallSpec())
		// Prime both with identical leading samples.
		a.Push(tc.t0, 5)
		b.Push(tc.t0, 5)
		a.Fill(tc.t0, tc.t1, tc.v, 1_000)
		for g := tc.t0 - tc.t0%1_000 + 1_000; g <= tc.t1; g += 1_000 {
			b.Push(g, tc.v)
		}
		if a.Pushes() != b.Pushes() {
			t.Fatalf("span (%d,%d]: pushes %d != %d", tc.t0, tc.t1, a.Pushes(), b.Pushes())
		}
		for li := 0; li < a.Levels(); li++ {
			wa := a.AppendWindows(nil, li)
			wb := b.AppendWindows(nil, li)
			if !sameWindows(wa, wb) {
				t.Fatalf("span (%d,%d] level %d:\nfill: %+v\npush: %+v", tc.t0, tc.t1, li, wa, wb)
			}
		}
	}
}

// sameWindows reports whether two window lists hold the same bits: unlike
// ==, it tells −0 from +0.
func sameWindows(a, b []Window) bool {
	if len(a) != len(b) {
		return false
	}
	bitsOf := func(w Window) [7]uint64 {
		return [7]uint64{uint64(w.StartUS), uint64(w.Cnt), math.Float64bits(w.Sum), math.Float64bits(w.Min),
			math.Float64bits(w.Max), math.Float64bits(w.Last), uint64(w.LastUS)}
	}
	for i := range a {
		if bitsOf(a[i]) != bitsOf(b[i]) {
			return false
		}
	}
	return true
}

// TestFillThenPushContinues checks a leap followed by detailed stepping
// lands in the same windows as continuous stepping would.
func TestFillThenPushContinues(t *testing.T) {
	a := NewSeries("a", smallSpec())
	b := NewSeries("b", smallSpec())
	a.Fill(0, 5_500, 1.0, 1_000)
	a.Push(6_000, 9.0)
	for g := int64(1_000); g <= 5_000; g += 1_000 {
		b.Push(g, 1.0)
	}
	b.Push(6_000, 9.0)
	for li := 0; li < a.Levels(); li++ {
		if !reflect.DeepEqual(a.AppendWindows(nil, li), b.AppendWindows(nil, li)) {
			t.Fatalf("level %d diverged", li)
		}
	}
}

// firstGridPointAfter is the smallest multiple of stride greater than t,
// found without rounding a remainder: t/stride*stride lies within one
// stride of t on either side.
func firstGridPointAfter(t, stride int64) int64 {
	g := t / stride * stride
	for g <= t {
		g += stride
	}
	return g
}

// TestNegativeTimesWindowLikePushes pins the two spans before time 0 that
// once windowed wrongly, when window starts and grid points rounded toward
// zero: Fill(-5000, 0, 1, stride) at strides 1 ms and 0.5 ms must leave
// the windows pushes at every grid point in (-5000, 0] leave, and those
// windows must start at floor multiples of their width. At stride 1 ms
// the 16 ms level holds the four points before 0 in [-16 ms, 0) and the
// point at 0 in its own window; at 0.5 ms the 1 ms window at -4 ms holds
// -4000 and -3500.
func TestNegativeTimesWindowLikePushes(t *testing.T) {
	for _, tc := range []struct {
		stride int64
		level  int
		want   []Window // the level's windows, StartUS and Cnt only
	}{
		{1_000, 2, []Window{{StartUS: -16_000, Cnt: 4}, {StartUS: 0, Cnt: 1}}},
		{500, 0, []Window{
			{StartUS: -5_000, Cnt: 1}, {StartUS: -4_000, Cnt: 2}, {StartUS: -3_000, Cnt: 2},
			{StartUS: -2_000, Cnt: 2}, {StartUS: -1_000, Cnt: 2}, {StartUS: 0, Cnt: 1},
		}},
	} {
		filled, pushed := NewSeries("f", smallSpec()), NewSeries("p", smallSpec())
		filled.Fill(-5_000, 0, 1, tc.stride)
		for g := -5_000 + tc.stride; g <= 0; g += tc.stride {
			pushed.Push(g, 1)
		}
		for li := 0; li < pushed.Levels(); li++ {
			wf, wp := filled.AppendWindows(nil, li), pushed.AppendWindows(nil, li)
			if !reflect.DeepEqual(wf, wp) {
				t.Fatalf("stride %d level %d:\nfill: %+v\npush: %+v", tc.stride, li, wf, wp)
			}
		}
		got := pushed.AppendWindows(nil, tc.level)
		if len(got) != len(tc.want) {
			t.Fatalf("stride %d level %d: %+v, want starts and counts %+v", tc.stride, tc.level, got, tc.want)
		}
		for i, w := range got {
			if w.StartUS != tc.want[i].StartUS || w.Cnt != tc.want[i].Cnt {
				t.Fatalf("stride %d level %d window %d: %+v, want StartUS %d Cnt %d", tc.stride, tc.level, i, w, tc.want[i].StartUS, tc.want[i].Cnt)
			}
		}
	}
}

func TestMergeWindowsOrderFree(t *testing.T) {
	mk := func(seed int64) []Window {
		s := NewSeries("m", smallSpec())
		for i := int64(0); i < 20; i++ {
			s.Push(i*1_000+seed*37, float64(seed)+float64(i))
		}
		return s.AppendWindows(nil, 1)
	}
	a, b, c := mk(1), mk(2), mk(3)
	m1 := MergeWindows(MergeWindows(append([]Window(nil), a...), b), c)
	m2 := MergeWindows(MergeWindows(append([]Window(nil), c...), a), b)
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("merge order changed result:\n%+v\n%+v", m1, m2)
	}
	var want, got int64
	for _, w := range append(append(append([]Window(nil), a...), b...), c...) {
		want += w.Cnt
	}
	for _, w := range m1 {
		got += w.Cnt
	}
	if want != got {
		t.Fatalf("merge lost samples: %d != %d", got, want)
	}
}

func TestNilSeriesSafe(t *testing.T) {
	var s *Series
	s.Push(0, 1)
	s.Fill(0, 1000, 1, 1000)
	if s.Name() != "" || s.Levels() != 0 || s.Pushes() != 0 {
		t.Fatal("nil series not inert")
	}
	if w := s.AppendWindows(nil, 0); w != nil {
		t.Fatal("nil series returned windows")
	}
	if !reflect.DeepEqual(s.Spec(), Spec{}) {
		t.Fatal("nil series has a spec")
	}
}

func TestPushZeroAlloc(t *testing.T) {
	s := NewSeries("z", DefaultSpec())
	var tUS int64
	allocs := testing.AllocsPerRun(5000, func() {
		tUS += 1_000
		s.Push(tUS, math.Sin(float64(tUS)))
	})
	if allocs != 0 {
		t.Fatalf("Push allocates: %v allocs/op", allocs)
	}
	allocs = testing.AllocsPerRun(500, func() {
		t0 := tUS
		tUS += 500_000
		s.Fill(t0, tUS, 1.5, 1_000)
	})
	if allocs != 0 {
		t.Fatalf("Fill allocates: %v allocs/op", allocs)
	}
}

// mergeRef is the allocating two-pointer merge, written out as the
// reference the in-place fold must reproduce.
func mergeRef(dst, src []Window) []Window {
	var merged []Window
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
	return append(merged, src[j:]...)
}

func TestMergeWindowsInPlaceMatchesMerge(t *testing.T) {
	// mkEvery pushes n samples strideUS apart from startUS; level 0 keeps
	// the newest 8 one-millisecond windows.
	mkEvery := func(startUS, strideUS int64, n int, base float64) []Window {
		s := NewSeries("m", smallSpec())
		for i := 0; i < n; i++ {
			s.Push(startUS+int64(i)*strideUS+int64(i%3)*100, base+float64(i%5))
		}
		return s.AppendWindows(nil, 0)
	}
	mk := func(startUS int64, n int, base float64) []Window { return mkEvery(startUS, 1_000, n, base) }
	for _, tc := range []struct {
		name     string
		dst, src []Window
		inPlace  bool
	}{
		{"aligned", mk(0, 20, 1), mk(0, 20, 2), true},
		{"aligned subset", mk(0, 20, 1), mk(14_000, 4, 7), true},
		{"offset", mk(0, 20, 1), mk(3_000, 20, 2), false},
		{"disjoint", mk(0, 8, 1), mk(100_000, 8, 2), false},
		{"src wider", mk(14_000, 4, 1), mk(0, 20, 2), false},
		{"interleaved", mkEvery(0, 2_000, 8, 1), mkEvery(1_000, 2_000, 4, 2), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := append([]Window(nil), tc.dst...)
			want := mergeRef(orig, tc.src)
			dst := append([]Window(nil), tc.dst...)
			got := MergeWindows(dst, tc.src)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("merge differs from the reference:\n%+v\n%+v", got, want)
			}
			if folded := &got[0] == &dst[0]; folded != tc.inPlace {
				t.Fatalf("folded in place = %v, want %v", folded, tc.inPlace)
			}
			if !tc.inPlace && !reflect.DeepEqual(dst, orig) {
				t.Fatalf("allocating merge modified dst")
			}
			if tc.inPlace {
				buf := make([]Window, len(tc.dst))
				allocs := testing.AllocsPerRun(100, func() {
					copy(buf, tc.dst)
					MergeWindows(buf, tc.src)
				})
				if allocs != 0 {
					t.Fatalf("aligned merge allocates %v times", allocs)
				}
			}
		})
	}
}

func TestAppendWindowsGrowsExactly(t *testing.T) {
	s := NewSeries("w", smallSpec())
	for i := int64(0); i < 21; i++ {
		s.Push(i*1_000, float64(i))
	}
	w := s.AppendWindows(nil, 0)
	if len(w) != 8 || cap(w) != 8 || w[0].StartUS != 13_000 || w[7].StartUS != 20_000 {
		t.Fatalf("wrapped level: len %d cap %d, %+v", len(w), cap(w), w)
	}
	head := []Window{{StartUS: -1}}
	w = s.AppendWindows(head, 1)
	if len(w) != 1+6 || cap(w) != len(w) || w[0].StartUS != -1 || w[1].StartUS != 0 {
		t.Fatalf("appended level: len %d cap %d, %+v", len(w), cap(w), w)
	}
	if w := s.AppendWindows(nil, 5); w != nil {
		t.Fatalf("missing level returned %v", w)
	}
}

// TestFillMatchesPushesRandom is TestFillMatchesPushes as a property over
// random histories, spans and strides: Fill(t0, t1, v, stride) leaves the
// push count and every level's windows as one Push(g, v) per stride
// multiple g in (t0, t1] does, and a push after the span lands alike.
// Spans are drawn empty, shorter than one stride, a few windows long, and
// long enough to wrap every ring. Values drawn from eighths of integers
// below 2^20 sum exactly, so the windows must be equal field for field.
// For arbitrary values Fill's Sum is the one-rounding k·v where the
// pushes round k times: every other field must still be equal, and Sum
// within the error bound of k roundings.
func TestFillMatchesPushesRandom(t *testing.T) {
	fillMatchesPushesRandom(t, rand.New(rand.NewPCG(9, 2015)), 3_000, nil)
}

// TestFillMatchesPushesNegativeRandom is the same property over histories
// that start up to 0.6 s before time 0, so spans start, end or straddle
// negative times, where a window's start and a span's grid points must
// round down, not toward zero.
func TestFillMatchesPushesNegativeRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(25, 2015))
	fillMatchesPushesRandom(t, r, 2_000, func() int64 { return -r.Int64N(600_000) })
}

// fillMatchesPushesRandom checks the Fill property over trials random
// histories, each starting at origin() (at 0 when origin is nil). The
// pushed reference's windows must also hold their samples: every window's
// LastUS lies in [StartUS, StartUS+width).
func fillMatchesPushesRandom(t *testing.T, r *rand.Rand, trials int, origin func() int64) {
	t.Helper()
	strides := []int64{1, 7, 250, 1_000, 1_500, 4_000, 16_000, 50_000}
	const maxPoints = 4_000
	for trial := 0; trial < trials; trial++ {
		stride := strides[r.IntN(len(strides))]
		exact := trial%2 == 0
		value := func() float64 {
			if exact {
				return float64(r.IntN(1<<23)) / 8
			}
			return 1e3 * r.NormFloat64()
		}
		a, b := NewSeries("a", smallSpec()), NewSeries("b", smallSpec())
		var t0 int64
		if origin != nil {
			t0 = origin()
		}
		for i := r.IntN(4); i > 0; i-- {
			t0 += r.Int64N(20_000)
			v := value()
			a.Push(t0, v)
			b.Push(t0, v)
		}
		t0 += r.Int64N(3 * stride)
		var span int64
		switch r.IntN(4) {
		case 0: // empty
		case 1: // shorter than one stride
			span = r.Int64N(stride)
		case 2: // a few windows of the coarsest level
			span = r.Int64N(4 * 16_000)
		case 3: // wraps every ring: 8 buckets of 16 ms
			span = 8*16_000 + r.Int64N(4*8*16_000)
		}
		if span > maxPoints*stride {
			span = maxPoints * stride
		}
		t1 := t0 + span
		v := value()
		a.Fill(t0, t1, v, stride)
		for g := firstGridPointAfter(t0, stride); g <= t1; g += stride {
			b.Push(g, v)
		}
		after := t1 + 1 + r.Int64N(2*stride)
		v = value()
		a.Push(after, v)
		b.Push(after, v)

		if a.Pushes() != b.Pushes() {
			t.Fatalf("trial %d (%d, %d] stride %d: pushes %d != %d", trial, t0, t1, stride, a.Pushes(), b.Pushes())
		}
		for li := 0; li < a.Levels(); li++ {
			wa, wb := a.AppendWindows(nil, li), b.AppendWindows(nil, li)
			if len(wa) != len(wb) {
				t.Fatalf("trial %d (%d, %d] stride %d level %d: %d windows != %d", trial, t0, t1, stride, li, len(wa), len(wb))
			}
			width := smallSpec().Levels[li].WidthUS
			for i, w := range wb {
				if w.LastUS < w.StartUS || w.LastUS >= w.StartUS+width {
					t.Fatalf("trial %d level %d window %d does not hold its sample: %+v", trial, li, i, w)
				}
			}
			for i := range wa {
				fa, fb := wa[i], wb[i]
				if !exact {
					// Recursive summation errs by at most (k-1)·2^-53·Σ|x|.
					n := float64(fb.Cnt)
					if math.Abs(fa.Sum-fb.Sum) > n*n*0x1p-53*math.Max(math.Abs(fb.Min), math.Abs(fb.Max)) {
						t.Fatalf("trial %d level %d window %d: fill sum %v, pushed sum %v", trial, li, i, fa.Sum, fb.Sum)
					}
					fa.Sum = fb.Sum
				}
				if fa != fb {
					t.Fatalf("trial %d (%d, %d] stride %d level %d window %d:\nfill: %+v\npush: %+v", trial, t0, t1, stride, li, i, wa[i], wb[i])
				}
			}
		}
	}
}

// TestFoldIntoMatchesMergeOfCopy holds FoldInto to its definition,
// MergeWindows(dst, s.AppendWindows(nil, li)), on every level of rings
// that wrap at varying heads, into nil, empty, aligned, subset, offset
// and disjoint destinations: the same windows, the same choice between
// folding in place and allocating, dst untouched when it allocates, and
// no allocation when it folds in place.
func TestFoldIntoMatchesMergeOfCopy(t *testing.T) {
	r := rand.New(rand.NewPCG(24, 7))
	mk := func(startUS int64, n int) *Series {
		s := NewSeries("f", smallSpec())
		for i := 0; i < n; i++ {
			s.Push(startUS+int64(i)*1_000+int64(i%3)*100, 100*r.NormFloat64())
		}
		return s
	}
	for trial := 0; trial < 400; trial++ {
		src := mk(int64(r.IntN(40))*1_000, 1+r.IntN(200)) // wraps level 0 past 8 windows
		other := mk(int64(r.IntN(40))*1_000+int64(r.IntN(2))*500, r.IntN(200))
		for li := 0; li < src.Levels(); li++ {
			for _, dst := range [][]Window{
				nil,
				make([]Window, 0, 16),
				src.AppendWindows(nil, li),     // aligned
				src.AppendWindows(nil, li)[1:], // missing the oldest
				other.AppendWindows(nil, li),   // offset or disjoint
			} {
				ref := append([]Window(nil), dst...)
				want := MergeWindows(ref, src.AppendWindows(nil, li))
				d := append(make([]Window, 0, cap(dst)), dst...)
				got := src.FoldInto(d, li)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d level %d: FoldInto\n%+v\nmerge of the copy\n%+v", trial, li, got, want)
				}
				inPlace := len(d) > 0 && len(got) > 0 && &got[0] == &d[0]
				wantInPlace := len(ref) > 0 && len(want) > 0 && &want[0] == &ref[0]
				if inPlace != wantInPlace {
					t.Fatalf("trial %d level %d: folded in place %v, MergeWindows %v", trial, li, inPlace, wantInPlace)
				}
				if !inPlace && len(d) > 0 && !reflect.DeepEqual(d, dst) {
					t.Fatalf("trial %d level %d: allocating fold changed dst", trial, li)
				}
				if inPlace {
					buf := make([]Window, len(dst))
					if allocs := testing.AllocsPerRun(20, func() {
						copy(buf, dst)
						src.FoldInto(buf, li)
					}); allocs != 0 {
						t.Fatalf("trial %d level %d: aligned FoldInto allocates %v times", trial, li, allocs)
					}
				}
			}
		}
	}
	var nilSeries *Series
	if got := nilSeries.FoldInto(nil, 0); got != nil {
		t.Fatalf("nil series folded %v", got)
	}
	if got := mk(0, 5).FoldInto(nil, 9); got != nil {
		t.Fatalf("missing level folded %v", got)
	}
}

// TestMergeWindowsGrouping is the merge's grouping property over 3–6
// window sets: every way of grouping the merges of the sets in one order
// gives the same windows, and so does every order when no two sets share
// a LastUS. Sum alone may differ, by float rounding; for sets of eighths
// of integers, whose partial sums are exact, it must not.
func TestMergeWindowsGrouping(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 2015))
	// fold merges sets[lo:hi] under a random grouping, left to right.
	var fold func(sets [][]Window, lo, hi int) []Window
	fold = func(sets [][]Window, lo, hi int) []Window {
		if hi-lo == 1 {
			return append([]Window(nil), sets[lo]...)
		}
		mid := lo + 1 + r.IntN(hi-lo-1)
		return MergeWindows(fold(sets, lo, mid), fold(sets, mid, hi))
	}
	for trial := 0; trial < 2_000; trial++ {
		exact := trial%2 == 0
		shared := trial%4 < 2 // sets push on one grid, tying every LastUS
		sets := make([][]Window, 3+r.IntN(4))
		for k := range sets {
			s := NewSeries("g", smallSpec())
			tUS := int64(r.IntN(30)) * 1_000
			if !shared {
				tUS += int64(k+1) * 7 // a LastUS no other set has
			}
			for i, n := 0, r.IntN(60); i < n; i++ {
				v := 100 * r.NormFloat64()
				if exact {
					v = float64(r.IntN(1<<20)-1<<19) / 8
				}
				s.Push(tUS, v)
				tUS += 1_000 * int64(1+r.IntN(2))
			}
			sets[k] = s.AppendWindows(nil, r.IntN(2))
		}
		want := fold(sets, 0, len(sets))
		order := sets
		if !shared {
			order = make([][]Window, len(sets))
			for i, p := range r.Perm(len(sets)) {
				order[i] = sets[p]
			}
		}
		got := fold(order, 0, len(order))
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d windows, want %d", trial, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			// Each order rounds at most len(sets)-1 additions of window
			// sums bounded by Cnt·max(|Min|, |Max|).
			bound := 2 * float64(len(sets)-1) * 0x1p-53 * float64(w.Cnt) * math.Max(math.Abs(w.Min), math.Abs(w.Max))
			if exact && g.Sum != w.Sum || math.Abs(g.Sum-w.Sum) > bound {
				t.Fatalf("trial %d window %d: sum %v, want %v (bound %v)", trial, i, g.Sum, w.Sum, bound)
			}
			g.Sum = w.Sum
			if g != w {
				t.Fatalf("trial %d window %d:\n%+v\n%+v", trial, i, got[i], want[i])
			}
		}
	}
}
