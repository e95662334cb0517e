package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckSweep checks that the default sweep passes and that each kind
// of flag that cannot bound a finite sweep is refused with a message
// naming the check it failed.
func TestCheckSweep(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name                                 string
		fmin, fmax, fstep, vmin, vmax, vstep float64
		err                                  string
	}{
		{"default", 2800, 4200, 280, 940, 1240, 20, ""},
		{"one point", 4200, 4200, 1, 1000, 1000, 1, ""},
		{"fmax Inf", 2800, inf, 280, 940, 1240, 20, "-fmax +Inf is not a finite number"},
		{"fstep NaN", 2800, 4200, nan, 940, 1240, 20, "-fstep NaN is not a finite number"},
		{"vmin -Inf", 2800, 4200, 280, -inf, 1240, 20, "-vmin -Inf is not a finite number"},
		{"vstep NaN", 2800, 4200, 280, 940, 1240, nan, "-vstep NaN is not a finite number"},
		{"negative fmin", -100, 100, 100, 940, 1240, 20, "not a positive frequency"},
		{"zero fmin", 0, 4200, 280, 940, 1240, 20, "not a positive frequency"},
		{"zero vmin", 2800, 4200, 280, 0, 1240, 20, "not a positive voltage"},
		{"fmin above fmax", 4200, 2800, 280, 940, 1240, 20, "inconsistent sweep bounds"},
		{"vmin above vmax", 2800, 4200, 280, 1240, 940, 20, "inconsistent sweep bounds"},
		{"zero fstep", 2800, 4200, 0, 940, 1240, 20, "-fstep 0 does not advance"},
		{"negative vstep", 2800, 4200, 280, 940, 1240, -20, "-vstep -20 does not advance"},
		{"vstep below an ulp", 2800, 4200, 280, 940, 1240, 1e-20, "-vstep 1e-20 does not advance"},
	} {
		err := checkSweep(tc.fmin, tc.fmax, tc.fstep, tc.vmin, tc.vmax, tc.vstep)
		if tc.err == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: got %v, want an error saying %q", tc.name, err, tc.err)
		}
	}
}
