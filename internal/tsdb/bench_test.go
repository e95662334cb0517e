package tsdb

import "testing"

// BenchmarkMergeWindows folds one level of 64 aligned series — the
// fleet's merge-on-read, every node pushing on the same 1 ms grid — into
// a single view: one copy, then 63 folds of 64 windows each.
func BenchmarkMergeWindows(b *testing.B) {
	srcs := make([][]Window, 64)
	for n := range srcs {
		s := NewSeries("m", CompactSpec())
		for tUS := int64(1000); tUS <= 200_000; tUS += 1000 {
			s.Push(tUS, float64(n)+float64(tUS%9000)/1000)
		}
		srcs[n] = s.AppendWindows(nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var merged []Window
		for _, src := range srcs {
			merged = MergeWindows(merged, src)
		}
		if len(merged) != 64 {
			b.Fatalf("merged %d windows", len(merged))
		}
	}
}

// BenchmarkFill backfills one firmware tick's 32 ms leap on the 1 ms
// grid into a DefaultSpec series, what a leaping chip does to each of
// its series per leap: 32 windows of the finest level, one or two of
// the coarser ones.
func BenchmarkFill(b *testing.B) {
	s := NewSeries("f", DefaultSpec())
	var tUS int64
	b.ReportAllocs()
	for b.Loop() {
		s.Fill(tUS, tUS+32_000, 1.5, 1_000)
		tUS += 32_000
	}
}

// BenchmarkPush pushes one 1 ms sample into a DefaultSpec series, what a
// micro-stepping chip does to each of its series per step: a compare
// against the current window's end at every level, and a rollover into
// the next window of the finest level on every push.
func BenchmarkPush(b *testing.B) {
	s := NewSeries("p", DefaultSpec())
	var tUS int64
	b.ReportAllocs()
	for b.Loop() {
		tUS += 1_000
		s.Push(tUS, float64(tUS%7_000))
	}
}
