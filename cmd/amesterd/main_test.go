package main

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"agsim/internal/amester"
	"agsim/internal/chip"
	"agsim/internal/snapshot"
)

// TestCheckpointReusesImageBuffer runs amesterd's checkpoint step as its
// -snap-every loop does, one simulated second of serving between writes:
// every file must hold the image snapshot.Save writes at that moment and
// restore into a server rebuilt from its header's scenario, and after the
// first write a checkpoint allocates under 16 KB, so no image buffer.
func TestCheckpointReusesImageBuffer(t *testing.T) {
	sc := amester.Scenario{Workload: "raytrace", Threads: 8, Mode: "undervolt", Borrow: true, Seed: 7, Timeseries: true}
	srv, _, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	snaps := newCheckpointer(t.TempDir(), sc, srv)
	for i := 0; i < 4; i++ {
		for s := 0; s < 1000; s++ {
			srv.Step(chip.DefaultStepSec)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		path, size, err := snaps.write()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		per := after.TotalAlloc - before.TotalAlloc
		t.Logf("write %d: %d-byte image, %d B allocated, buffer cap %d", i, size, per, cap(snaps.image))
		if i > 0 && per >= 16<<10 {
			t.Errorf("write %d: checkpoint allocates %d B for a %d-byte image, want under %d", i, per, size, 16<<10)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := snapshot.Save(srv, snapshot.Meta{Seed: sc.Seed, Revision: "amesterd", Extra: sc.Marshal(), TimeSec: srv.Time()})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, want) {
			t.Fatalf("write %d: %s holds %d bytes unlike Save's %d-byte image", i, path, len(img), len(want))
		}
		meta, err := snapshot.ReadMeta(img)
		if err != nil {
			t.Fatal(err)
		}
		back, err := amester.ParseScenario(meta.Extra)
		if err != nil {
			t.Fatal(err)
		}
		target, _, err := back.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.Load(img, target); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}
