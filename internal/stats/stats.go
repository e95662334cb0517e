// Package stats implements the statistics the paper's analysis relies on:
// summary statistics, percentiles and CDFs for latency analysis (Fig. 17),
// and ordinary least-squares fitting with RMSE for the CPM voltage
// calibration (Fig. 6) and the MIPS-based frequency predictor (Fig. 16).
package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the smallest element of xs; it panics on an empty slice since
// asking for the minimum of nothing is a caller bug in this codebase.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - mu
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0-100) of xs using linear
// interpolation between order statistics. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile of a sample already sorted ascending,
// read in place; a caller that owns its sample sorts it once and copies
// nothing. It panics on an empty slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from a sample. The input is copied.
func NewCDF(xs []float64) *CDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// At returns the fraction of samples <= x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	n := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(c.sorted))
}

// Quantile returns the value at cumulative probability q in [0,1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return PercentileSorted(c.sorted, q*100)
}

// Len returns the number of samples in the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// LinearFit is the result of an ordinary least-squares fit y = Slope*x +
// Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination.
	R2 float64
	// RMSE is the root-mean-square error of the residuals in units of y.
	RMSE float64
	// RelRMSE is RMSE divided by the mean of y; the paper reports the
	// Fig. 16 predictor error this way ("root mean square error of only
	// 0.3%").
	RelRMSE float64
	N       int
}

// ErrDegenerateFit is returned when a regression has fewer than two points
// or zero variance in x.
var ErrDegenerateFit = errors.New("stats: degenerate linear fit")

// Fit performs ordinary least squares on the paired samples.
func Fit(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: Fit length mismatch")
	}
	if len(xs) < 2 {
		return LinearFit{}, ErrDegenerateFit
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return LinearFit{}, ErrDegenerateFit
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	var ssRes, ssTot float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		r := ys[i] - pred
		ssRes += r * r
		d := ys[i] - my
		ssTot += d * d
	}
	fit := LinearFit{
		Slope:     slope,
		Intercept: intercept,
		RMSE:      math.Sqrt(ssRes / float64(len(xs))),
		N:         len(xs),
	}
	if ssTot > 0 {
		fit.R2 = 1 - ssRes/ssTot
	} else {
		fit.R2 = 1
	}
	if my != 0 {
		fit.RelRMSE = fit.RMSE / math.Abs(my)
	}
	return fit, nil
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.Slope*x + f.Intercept }

// Pearson returns the Pearson correlation coefficient of the paired samples,
// or 0 when either series has no variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, syy, sxy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
