package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agsim/internal/amester"
	"agsim/internal/obs"
	"agsim/internal/server"
	"agsim/internal/snapshot"
)

// FuzzParseUntil holds `agsim replay -until` to its contract: parsing
// never panics, and every value it accepts names a known event kind with
// an occurrence count N >= 1. Every kind's own name parses back to that
// kind, and a misspelt kind is an error that lists the valid names.
func FuzzParseUntil(f *testing.F) {
	for k := obs.KindDroop; k <= obs.KindHealth; k++ {
		if got, n, err := parseUntil(k.String()); err != nil || got != k || n != 1 {
			f.Fatalf("parseUntil(%q) = %v, %d, %v; want %v, 1", k.String(), got, n, err, k)
		}
	}
	if got, n, err := parseUntil("cpm-window:3"); err != nil || got != obs.KindWindow || n != 3 {
		f.Fatalf("parseUntil(cpm-window:3) = %v, %d, %v", got, n, err)
	}
	if _, _, err := parseUntil("droops"); err == nil || !strings.Contains(err.Error(), "cpm-window") {
		f.Fatalf("parseUntil(droops) = %v, want an error listing the kinds", err)
	}
	for _, s := range []string{"droop", "cpm-window:3", ":3", "droop:", "droop:0", "droop:-1", "droop:99999999999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, n, err := parseUntil(s)
		if err != nil {
			return
		}
		if k.String() == "unknown" || n < 1 {
			t.Fatalf("parseUntil(%q) accepted kind %d, N %d", s, k, n)
		}
	})
}

// TestReplayRefusesBadScenario: an image whose header scenario claims a
// thread count outside the server's cores is an error from replay before
// anything is sized by it, not a panic.
func TestReplayRefusesBadScenario(t *testing.T) {
	for _, threads := range []int{-3, 0, 17, 1 << 40} {
		sc := amester.Scenario{Workload: "raytrace", Threads: threads, Mode: "undervolt", Borrow: true, Seed: 7}
		img, err := snapshot.Save(server.MustNew(server.DefaultConfig(7)), snapshot.Meta{Seed: 7, Extra: sc.Marshal()})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := replay(path, obs.KindWindow, 1, 1); err == nil || !strings.Contains(err.Error(), "threads") {
			t.Errorf("replay of a %d-thread scenario = %v, want a thread-count error", threads, err)
		}
	}
}
