// Command cpmcal runs the standalone CPM calibration sweep of paper Fig. 6:
// with adaptive guardbanding disabled and the cores issue-throttled, it
// sweeps supply voltage at each clock frequency and prints the mean CPM
// output, from which the millivolts-per-bit sensitivity is fitted.
//
// Usage:
//
//	cpmcal [-fmin 2800] [-fmax 4200] [-fstep 280] [-vmin 940] [-vmax 1240]
//	       [-vstep 20] [-seed 1] [-csv]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"agsim/internal/chip"
	"agsim/internal/experiments"
	"agsim/internal/stats"
	"agsim/internal/units"
	"agsim/internal/workload"
)

// checkSweep refuses flags that cannot bound a finite sweep: a value that
// is not finite, a frequency or voltage that is not positive, a lower
// bound above its upper one, and a step that does not advance the sweep
// at its upper bound, where adding a step to a float moves it least.
func checkSweep(fmin, fmax, fstep, vmin, vmax, vstep float64) error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"-fmin", fmin}, {"-fmax", fmax}, {"-fstep", fstep}, {"-vmin", vmin}, {"-vmax", vmax}, {"-vstep", vstep}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s %v is not a finite number", f.name, f.v)
		}
	}
	switch {
	case fmin <= 0:
		return fmt.Errorf("-fmin %v MHz is not a positive frequency", fmin)
	case vmin <= 0:
		return fmt.Errorf("-vmin %v mV is not a positive voltage", vmin)
	case fmin > fmax || vmin > vmax:
		return fmt.Errorf("inconsistent sweep bounds")
	case !(fmax+fstep > fmax):
		return fmt.Errorf("-fstep %v does not advance the sweep at -fmax %v MHz", fstep, fmax)
	case !(vmax+vstep > vmax):
		return fmt.Errorf("-vstep %v does not advance the sweep at -vmax %v mV", vstep, vmax)
	}
	return nil
}

func main() {
	fmin := flag.Float64("fmin", 2800, "lowest frequency (MHz)")
	fmax := flag.Float64("fmax", 4200, "highest frequency (MHz)")
	fstep := flag.Float64("fstep", 280, "frequency step (MHz)")
	vmin := flag.Float64("vmin", 940, "lowest voltage (mV)")
	vmax := flag.Float64("vmax", 1240, "highest voltage (mV)")
	vstep := flag.Float64("vstep", 20, "voltage step (mV)")
	seed := flag.Uint64("seed", 1, "chip process-variation seed")
	csv := flag.Bool("csv", false, "emit raw sweep as CSV instead of the fitted summary")
	flag.Parse()

	if err := checkSweep(*fmin, *fmax, *fstep, *vmin, *vmax, *vstep); err != nil {
		fmt.Fprintln(os.Stderr, "cpmcal:", err)
		os.Exit(2)
	}

	c := chip.MustNew(chip.DefaultConfig("cal", *seed))
	idle := workload.MustGet("coremark")
	for i := 0; i < c.Cores(); i++ {
		c.Place(i, workload.NewThread(idle, 1e9, nil))
		c.SetIssueThrottle(i, 1.0/128) // paper §4.1: one fetch per 128 cycles
	}

	if *csv {
		fmt.Println("freq_mhz,volt_mv,mean_cpm")
	}
	for f := *fmin; f <= *fmax+1e-9; f += *fstep {
		var xs, ys []float64
		for v := *vmin; v <= *vmax+1e-9; v += *vstep {
			mean, linear := experiments.CPMCalibrationPoint(c, units.Millivolt(v), units.Megahertz(f))
			if *csv {
				fmt.Printf("%.0f,%.0f,%.3f\n", f, v, mean)
			}
			if linear {
				xs = append(xs, v)
				ys = append(ys, mean)
			}
		}
		if *csv {
			continue
		}
		fit, err := stats.Fit(xs, ys)
		if err != nil || fit.Slope <= 0 {
			fmt.Printf("%5.0f MHz: sweep saturated, no usable fit\n", f)
			continue
		}
		fmt.Printf("%5.0f MHz: %5.1f mV/bit  (R^2 %.4f over %d points)\n",
			f, 1/fit.Slope, fit.R2, fit.N)
	}
}
