package snapshot_test

import (
	"testing"

	"agsim/internal/snapshot"
)

// BenchmarkSave images a settled 8-node serving fleet with its traffic
// generator: about 0.5 MB, mostly tsdb windows and recorder events.
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

// BenchmarkSaveChip images one settled chip with its recorder shard, the
// checkpoint codec's per-chip layer: the serving pair's image holds
// sixteen chips beside the fleet's, generator's and recorder tree's state.
func BenchmarkSaveChip(b *testing.B) {
	c := settledChip()
	meta := snapshot.Meta{Seed: 5}
	img, err := snapshot.Save(c, meta)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Save(c, meta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadChip restores that image into a fresh chip of the same
// shape.
func BenchmarkLoadChip(b *testing.B) {
	img, err := snapshot.Save(settledChip(), snapshot.Meta{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	standby := recordedChip(5)
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Load(img, standby); err != nil {
			b.Fatal(err)
		}
	}
}
