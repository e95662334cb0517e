package main

import (
	"math"
	"strings"
	"testing"
)

// TestDurationSteps checks -duration is converted to whole 1 ms steps and
// that each kind of bad value is refused with a message naming the check
// it failed, before any conversion can overflow.
func TestDurationSteps(t *testing.T) {
	for _, tc := range []struct {
		sec   float64
		steps int
		err   string
	}{
		{0.5, 500, ""},
		{10, 10_000, ""},
		{maxDurationSec, maxDurationSec * 1000, ""},
		{0.0004, 0, "shorter than one"},
		{0, 0, "not > 0"},
		{-1, 0, "not > 0"},
		{maxDurationSec + 1, 0, "exceeds the 86400 s maximum"},
		{1e300, 0, "exceeds the 86400 s maximum"},
		{math.NaN(), 0, "not a finite number"},
		{math.Inf(1), 0, "not a finite number"},
		{math.Inf(-1), 0, "not a finite number"},
	} {
		steps, err := durationSteps(tc.sec)
		if tc.err == "" {
			if err != nil || steps != tc.steps {
				t.Errorf("durationSteps(%v) = %d, %v; want %d steps", tc.sec, steps, err, tc.steps)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("durationSteps(%v) = %d, %v; want an error saying %q", tc.sec, steps, err, tc.err)
		}
	}
}
