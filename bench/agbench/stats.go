package main

import (
	"math"
	"sort"
)

// metric is one named measurement with its unit, direction, sample count
// and quartiles. Value is the median of the samples for timings; for a
// count or a single observation it is that value with N = 1.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize reduces samples to a metric: median value and the quartiles
// Python's statistics.quantiles(n=4) reports (the "exclusive" method), so
// spreads printed here match the ones an external checker computes.
func summarize(name, unit, better string, samples []float64) metric {
	m := metric{Name: name, Unit: unit, Better: better, N: len(samples)}
	if len(samples) == 0 {
		return m
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m.Value = quantile(s, 0.5)
	m.Q1 = quantile(s, 0.25)
	m.Q3 = quantile(s, 0.75)
	return m
}

// single wraps one observation (a count, a fraction, a deterministic
// output) as a metric with n=1.
func single(name, unit, better string, v float64) metric {
	return metric{Name: name, Unit: unit, Better: better, Value: v, N: 1, Q1: v, Q3: v}
}

// quantile reads the p-quantile of sorted data by linear interpolation at
// 1-based position p*(n+1), clamped to the sample range.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n+1)
	if pos <= 1 {
		return sorted[0]
	}
	if pos >= float64(n) {
		return sorted[n-1]
	}
	j := int(pos)
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

// spread is the interquartile range as a share of the median.
func spread(m metric) float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Value)
}

// pct is the p-quantile of unsorted samples.
func pct(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p)
}

// percentile takes the p-quantile of each pass's samples and reports
// their median and quartiles over passes, with n the total sample count.
// A slow stretch of the host then moves the passes it covers, not the
// tail of the whole run.
func percentile(name string, perPass [][]float64, p float64) metric {
	var vals []float64
	n := 0
	for _, xs := range perPass {
		vals = append(vals, pct(xs, p))
		n += len(xs)
	}
	m := summarize(name, "ms", "lower", vals)
	m.N = n
	return m
}
