package snapshot_test

import (
	"testing"

	"agsim/internal/snapshot"
)

// BenchmarkSave images a settled 8-node serving fleet with its traffic
// generator: ~0.9 MB, mostly tsdb windows and recorder events.
func BenchmarkSave(b *testing.B) {
	p := settledServePair(9)
	defer p.F.Close()
	meta := snapshot.Meta{Seed: 9, TimeSec: p.F.Time()}
	img, err := snapshot.Save(p, meta)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Save(p, meta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad restores that image into a standby pair of the same
// shape, the checkpoint path's other half.
func BenchmarkLoad(b *testing.B) {
	p := settledServePair(9)
	img, err := snapshot.Save(p, snapshot.Meta{Seed: 9, TimeSec: p.F.Time()})
	p.F.Close()
	if err != nil {
		b.Fatal(err)
	}
	standby := newServePair(8, 9)
	defer standby.F.Close()
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Load(img, standby); err != nil {
			b.Fatal(err)
		}
	}
}
