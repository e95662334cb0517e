package snapshot_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"agsim/internal/chip"
	"agsim/internal/snapshot"
)

// allocPerCall returns the heap bytes one call of f allocates, averaged
// over runs calls that follow one warm-up call.
func allocPerCall(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestSaveAllocationBound holds a checkpoint of the 8-node serving pair to
// little beyond the image it returns. Save sizes its buffer from the last
// image of the root type with 1/16 to spare and reuses the type's
// identity table, and every map of the Save sorts its entries in one
// scratch, so it may allocate the image's 17/16 and 16 KB more (the
// scratch and the walk's small buffers take about 10.8 KB).
func TestSaveAllocationBound(t *testing.T) {
	p := settledServePair(9)
	defer p.F.Close()
	meta := snapshot.Meta{Seed: 9, TimeSec: p.F.Time()}
	img, err := snapshot.Save(p, meta)
	if err != nil {
		t.Fatal(err)
	}
	per := allocPerCall(4, func() {
		if _, err := snapshot.Save(p, meta); err != nil {
			t.Fatal(err)
		}
	})
	if bound := uint64(len(img))*17/16 + 16<<10; per > bound {
		t.Fatalf("Save allocates %d B per call for a %d-byte image, want at most %d", per, len(img), bound)
	}
}

// TestLoadAllocationBound holds a restore of that image into a standby
// pair to under a sixteenth of the image. The standby's rings, slices and
// strings already have the image's shape and bytes, and the type's
// pointer table is reused, so what Load allocates is the maps it rebuilds
// (about 11 KB).
func TestLoadAllocationBound(t *testing.T) {
	p := settledServePair(9)
	img, err := snapshot.Save(p, snapshot.Meta{Seed: 9, TimeSec: p.F.Time()})
	p.F.Close()
	if err != nil {
		t.Fatal(err)
	}
	standby := newServePair(8, 9)
	defer standby.F.Close()
	per := allocPerCall(4, func() {
		if _, err := snapshot.Load(img, standby); err != nil {
			t.Fatal(err)
		}
	})
	if bound := uint64(len(img)) / 16; per >= bound {
		t.Fatalf("Load allocates %d B per call for a %d-byte image, want under %d", per, len(img), bound)
	}
}

// settledChip is the chip BenchmarkSaveChip and BenchmarkLoadChip image.
func settledChip() *chip.Chip {
	c := recordedChip(5)
	c.Settle(0.5)
	return c
}

// TestSaveChipAllocationBound holds a checkpoint of one recorded chip to
// its image's 17/16 and 4 KB more, the walk's small buffers (about 2.5 KB
// for this 18 KB image).
func TestSaveChipAllocationBound(t *testing.T) {
	c := settledChip()
	meta := snapshot.Meta{Seed: 5}
	img, err := snapshot.Save(c, meta)
	if err != nil {
		t.Fatal(err)
	}
	per := allocPerCall(8, func() {
		if _, err := snapshot.Save(c, meta); err != nil {
			t.Fatal(err)
		}
	})
	if bound := uint64(len(img))*17/16 + 4<<10; per > bound {
		t.Fatalf("Save allocates %d B per call for a %d-byte chip image, want at most %d", per, len(img), bound)
	}
}

// TestLoadChipAllocationBound holds a restore of that image into a chip
// of the same shape to under 4 KB: the recorder shard's maps it rebuilds
// (about 2.2 KB).
func TestLoadChipAllocationBound(t *testing.T) {
	img, err := snapshot.Save(settledChip(), snapshot.Meta{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	standby := recordedChip(5)
	per := allocPerCall(8, func() {
		if _, err := snapshot.Load(img, standby); err != nil {
			t.Fatal(err)
		}
	})
	if per >= 4<<10 {
		t.Fatalf("Load allocates %d B per call for a %d-byte chip image, want under %d", per, len(img), 4<<10)
	}
}

// TestAppendSaveMatchesSave requires AppendSave to write Save's image byte
// for byte, for the 8-node serving pair and for one chip, and, handed its
// last image's buffer back, to write the next image into it: a Save of
// the pair after it has served on allocates under 16 KB, far less than
// the half-megabyte image.
func TestAppendSaveMatchesSave(t *testing.T) {
	p := settledServePair(9)
	defer p.F.Close()
	c := settledChip()
	var buf []byte
	for round := 0; round < 2; round++ {
		for _, tc := range []struct {
			name string
			root any
			meta snapshot.Meta
		}{
			{"serving pair", p, snapshot.Meta{Seed: 9, TimeSec: p.F.Time()}},
			{"chip", c, snapshot.Meta{Seed: 5, TimeSec: c.Time()}},
		} {
			want, err := snapshot.Save(tc.root, tc.meta)
			if err != nil {
				t.Fatal(err)
			}
			if buf, err = snapshot.AppendSave(buf[:0], tc.root, tc.meta); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("round %d, %s: AppendSave wrote %d bytes unlike Save's %d-byte image", round, tc.name, len(buf), len(want))
			}
		}
		p.serve(2, 0.25)
		c.Settle(0.1)
	}
	meta := snapshot.Meta{Seed: 9, TimeSec: p.F.Time()}
	var err error
	if buf, err = snapshot.AppendSave(buf[:0], p, meta); err != nil {
		t.Fatal(err)
	}
	per := allocPerCall(4, func() {
		if buf, err = snapshot.AppendSave(buf[:0], p, meta); err != nil {
			t.Fatal(err)
		}
	})
	if per >= 16<<10 {
		t.Fatalf("AppendSave into the last image's buffer allocates %d B per call for a %d-byte image, want under %d", per, len(buf), 16<<10)
	}
}

// TestConcurrentSaveLoadMatchesSerial saves and restores chips of one root
// type from several goroutines at once, so the calls contend for the
// type's cached identity tables: every image must be byte-identical to
// the one a serial Save wrote, and every restored chip must image like
// its original, and every image AppendSave writes into the goroutine's
// own buffer must match too. Run it under -race.
func TestConcurrentSaveLoadMatchesSerial(t *testing.T) {
	const workers, rounds = 4, 6
	chips := make([]*chip.Chip, workers)
	serial := make([][]byte, workers)
	for w := range chips {
		seed := uint64(60 + w)
		chips[w] = recordedChip(seed)
		chips[w].Settle(0.2 + 0.05*float64(w))
		img, err := snapshot.Save(chips[w], snapshot.Meta{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		serial[w] = img
	}
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range chips {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			seed := uint64(60 + w)
			target := recordedChip(seed)
			var buf []byte
			for r := 0; r < rounds; r++ {
				img, err := snapshot.Save(chips[w], snapshot.Meta{Seed: seed})
				if err == nil && !bytes.Equal(img, serial[w]) {
					err = fmt.Errorf("round %d: image differs from the serial one (%d vs %d bytes)", r, len(img), len(serial[w]))
				}
				if err == nil {
					buf, err = snapshot.AppendSave(buf[:0], chips[w], snapshot.Meta{Seed: seed})
				}
				if err == nil && !bytes.Equal(buf, serial[w]) {
					err = fmt.Errorf("round %d: appended image differs from the serial one (%d vs %d bytes)", r, len(buf), len(serial[w]))
				}
				if err == nil {
					_, err = snapshot.Load(img, target)
				}
				if err == nil {
					img, err = snapshot.Save(target, snapshot.Meta{Seed: seed})
				}
				if err == nil && !bytes.Equal(img, serial[w]) {
					err = fmt.Errorf("round %d: restored chip images differently (%d vs %d bytes)", r, len(img), len(serial[w]))
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}
