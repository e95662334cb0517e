package experiments

import (
	"fmt"

	"agsim/internal/chip"
	"agsim/internal/cpm"
	"agsim/internal/stats"
	"agsim/internal/trace"
	"agsim/internal/units"
	"agsim/internal/workload"
)

// Fig06Result reproduces Fig. 6: the CPM-to-voltage calibration obtained by
// sweeping supply voltage at each frequency with adaptive guardbanding
// disabled and the cores issue-throttled (paper §4.1: one instruction every
// 128 cycles to minimize variability).
type Fig06Result struct {
	// Mapping (Fig. 6a): one series per frequency, mean CPM value of all
	// 40 sensors vs commanded voltage.
	Mapping *trace.Figure
	// Sensitivity (Fig. 6b): one series per (core, CPM), millivolts per
	// CPM bit vs frequency.
	Sensitivity *trace.Figure

	// MVPerBitAtPeak is the fitted population sensitivity at 4.2 GHz
	// (paper: ~21 mV per CPM bit).
	MVPerBitAtPeak float64
	// R2AtPeak is the linearity of the peak-frequency fit (the paper
	// reports a "near-linear relationship").
	R2AtPeak float64
	// SensitivityMin/Max span the per-sensor band (paper Fig. 6b: roughly
	// 10-30 mV/bit).
	SensitivityMin, SensitivityMax float64
}

// Fig06CPMCalibration runs the Fig. 6 experiment.
//
// This driver is intentionally serial regardless of Options.Workers: the
// whole frequency × voltage grid is swept on ONE chip whose electrical
// state warm-starts each grid point from the previous one (the hardware
// methodology). Splitting the grid across chips would change the
// measurements, so there is no parallel decomposition that stays
// bit-identical.
func Fig06CPMCalibration(o Options) Fig06Result {
	res := Fig06Result{
		Mapping:     trace.NewFigure("Fig. 6a: mean CPM value vs voltage per frequency"),
		Sensitivity: trace.NewFigure("Fig. 6b: per-CPM sensitivity vs frequency"),
	}

	freqs := []units.Megahertz{2800, 3080, 3360, 3640, 3920, 4200}
	if o.Quick {
		freqs = []units.Megahertz{2800, 3640, 4200}
	}
	voltStep := units.Millivolt(20)
	if o.Quick {
		voltStep = 60
	}

	c := newChip(o, "fig06")
	// The paper lets the OS idle and throttles fetch to 1 per 128 cycles;
	// an idle-OS-like load on every core with deep issue throttling.
	idle := workload.MustGet("coremark")
	for i := 0; i < c.Cores(); i++ {
		c.Place(i, workload.NewThread(idle, 1e9, nil))
		c.SetIssueThrottle(i, 1.0/128)
	}

	res.SensitivityMin, res.SensitivityMax = 1e9, 0
	for _, f := range freqs {
		series := res.Mapping.NewSeries(fmt.Sprintf("%.0fMHz", float64(f)), "mV", "CPM value")
		var xs, ys []float64
		for v := units.Millivolt(940); v <= 1240; v += voltStep {
			mean, linear := CPMCalibrationPoint(c, v, f)
			series.Add(float64(v), mean)
			if linear {
				xs = append(xs, float64(v))
				ys = append(ys, mean)
			}
		}
		if fit, err := stats.Fit(xs, ys); err == nil && fit.Slope > 0 {
			if f == 4200 {
				res.MVPerBitAtPeak = 1 / fit.Slope
				res.R2AtPeak = fit.R2
			}
		}

		// Fig. 6b: per-sensor sensitivity from the sensor model's own
		// calibration readout, the quantity the paper derives per CPM.
		for core := 0; core < c.Cores(); core++ {
			for j := 0; j < chip.CPMsPerCore; j++ {
				mv := c.CPMMVPerBitAt(core, j, f)
				name := fmt.Sprintf("core%d/cpm%d", core, j)
				s := res.Sensitivity.Lookup(name)
				if s == nil {
					s = res.Sensitivity.NewSeries(name, "MHz", "mV/bit")
				}
				s.Add(float64(f), mv)
				if mv < res.SensitivityMin {
					res.SensitivityMin = mv
				}
				if mv > res.SensitivityMax {
					res.SensitivityMax = mv
				}
			}
		}
	}
	releaseChip(c)
	return res
}

// CPMCalibrationPoint measures one point of the Fig. 6 calibration sweep
// on c: Manual mode at (v, f), a 0.15 s settle, then the mean CPM output
// over 100 micro-steps, averaged across cores. linear reports whether the
// mean sits in the unsaturated middle of the detector, the only part
// usable for the linear sensitivity fit.
func CPMCalibrationPoint(c *chip.Chip, v units.Millivolt, f units.Megahertz) (mean float64, linear bool) {
	c.SetManual(v, f)
	c.Settle(0.15)
	const steps = 100
	for i := 0; i < steps; i++ {
		c.Step(chip.DefaultStepSec)
		sum := 0.0
		for core := 0; core < c.Cores(); core++ {
			sum += c.CoreCPMMean(core)
		}
		mean += sum / float64(c.Cores())
	}
	mean /= steps
	return mean, mean > 0.5 && mean < float64(cpm.MaxValue)-0.5
}
