package main

import (
	"strings"
	"testing"

	"agsim/internal/obs"
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
