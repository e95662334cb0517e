package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
)

// compareRuns applies the benchmark's acceptance rule to two sets of
// result files: A (the parent) and B (the change), run alternately. Per
// (workload, metric) it prints each side's median and quartiles, the
// pairs B won, and a verdict:
//
//   - better: B wins at least nine tenths of the pairs and the medians
//     differ by more than A's interquartile range;
//   - worse: B's median is worse than A's by more than the metric's
//     bound (without a bound: the mirror of better);
//   - unresolved: either side's spread exceeds the bound, unless every B
//     run beats (or trails) every A run;
//   - same: none of these.
func compareRuns(w io.Writer, boundsPath string, aPaths, bPaths []string) error {
	a, err := loadReports(aPaths)
	if err != nil {
		return err
	}
	b, err := loadReports(bPaths)
	if err != nil {
		return err
	}
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-30s %-12s %26s %26s %8s %7s  %s\n", "workload", "metric", "unit", "A median [q1 q3]", "B median [q1 q3]", "delta", "B won", "verdict")
	for _, key := range metricKeys(a[0]) {
		av, bv := valuesOf(a, key), valuesOf(b, key)
		if len(av) == 0 || len(bv) == 0 {
			continue
		}
		ma := summarize(key.metric, key.unit, key.better, av)
		mb := summarize(key.metric, key.unit, key.better, bv)
		bound, hasBound := bounds[key.metric]
		won, pairs := 0, min(len(av), len(bv))
		for i := 0; i < pairs; i++ {
			if improves(key.better, av[i], bv[i]) {
				won++
			}
		}
		verdict := judge(key.better, av, bv, ma, mb, bound, hasBound, won, pairs)
		delta := 0.0
		if ma.Value != 0 {
			delta = (mb.Value - ma.Value) / math.Abs(ma.Value)
		}
		fmt.Fprintf(w, "%-13s %-30s %-12s %10.4g [%6.4g %6.4g] %10.4g [%6.4g %6.4g] %+7.1f%% %3d/%-3d  %s\n",
			key.workload, key.metric, key.unit, ma.Value, ma.Q1, ma.Q3, mb.Value, mb.Q1, mb.Q3, 100*delta, won, pairs, verdict)
	}
	return nil
}

// improves reports whether b is strictly better than a.
func improves(better string, a, b float64) bool {
	if better == "higher" {
		return b > a
	}
	return b < a
}

func judge(better string, av, bv []float64, ma, mb metric, bound float64, hasBound bool, won, pairs int) string {
	allBetter, allWorse := true, true
	for _, x := range av {
		for _, y := range bv {
			allBetter = allBetter && improves(better, x, y)
			allWorse = allWorse && improves(better, y, x)
		}
	}
	iqr := ma.Q3 - ma.Q1
	gap := math.Abs(mb.Value - ma.Value)
	lost := 0
	for i := 0; i < pairs; i++ {
		if improves(better, bv[i], av[i]) {
			lost++
		}
	}
	worseBy := (mb.Value - ma.Value) / math.Abs(ma.Value)
	if better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case hasBound && (spread(ma) > bound || spread(mb) > bound) && !allBetter && !allWorse:
		return "unresolved"
	case float64(won) >= 0.9*float64(pairs) && gap > iqr && improves(better, ma.Value, mb.Value):
		return "better"
	case hasBound && worseBy > bound:
		return "worse"
	case !hasBound && float64(lost) >= 0.9*float64(pairs) && gap > iqr:
		return "worse"
	}
	return "same"
}

// metricKey identifies one (workload, metric) row.
type metricKey struct {
	workload, metric, unit, better string
}

func metricKeys(r report) []metricKey {
	var keys []metricKey
	for _, wr := range r.Workloads {
		for _, m := range wr.Metrics {
			keys = append(keys, metricKey{wr.Name, m.Name, m.Unit, m.Better})
		}
	}
	for _, m := range r.Metrics {
		keys = append(keys, metricKey{"all", m.Name, m.Unit, m.Better})
	}
	return keys
}

// valuesOf collects the metric's value from every report that has it, in
// file order, so index i of A and of B form pair i.
func valuesOf(rs []report, k metricKey) []float64 {
	var out []float64
	for _, r := range rs {
		ms := r.Metrics
		for _, wr := range r.Workloads {
			if wr.Name == k.workload {
				ms = wr.Metrics
			}
		}
		for _, m := range ms {
			if m.Name == k.metric {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func loadReports(paths []string) ([]report, error) {
	if len(paths) == 0 {
		return nil, errors.New("compare: each side needs at least one results file")
	}
	var rs []report
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// loadBounds reads each end-to-end metric's bound from BENCHMARK.json;
// a missing file means no bounds.
func loadBounds(path string) (map[string]float64, error) {
	bounds := map[string]float64{}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return bounds, nil
	}
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
