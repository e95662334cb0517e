package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// smokeRun runs every workload at smoke scale in this process.
func smokeRun(t *testing.T, trace bool) (report, string) {
	t.Helper()
	var out bytes.Buffer
	rep, err := runSuite(&out, runConfig{
		workloads: []string{"paper", "exact-grid", "sampled-grid", "fleet-serve"},
		seed:      goldenSeeds[0], trace: trace, procs: 2, goldenDir: "../golden", scale: smokeScale,
		child: func(cc childConfig) (*childResult, error) {
			cc.T0 = time.Now()
			return runChild(cc)
		},
	})
	if err != nil {
		t.Fatalf("run (trace=%v): %v\n%s", trace, err, out.String())
	}
	return rep, out.String()
}

// printed reports whether a "workload metric value unit" line is in out.
func printed(out, workload, name, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == workload && f[1] == name && f[3] == unit {
			return true
		}
	}
	return false
}

// TestSmoke runs each workload at smoke scale — one experiment, four grid
// points, eight nodes for four epochs with a checkpoint and a replay —
// twice untraced and once traced. Every metric BENCHMARK.json names must
// be printed with its unit, no op may fail, and the two untraced runs
// must produce identical simulated outputs.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if i >= len(bm.Workloads) || bm.Workloads[i].Name != w.name {
			t.Fatalf("BENCHMARK.json workloads do not list %s at position %d", w.name, i)
		}
	}

	first, out := smokeRun(t, false)
	second, _ := smokeRun(t, false)
	for i, wr := range first.Workloads {
		if !wr.Correct || wr.Failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", wr.Name, wr.Failed, wr.Attempted, wr.Notes)
		}
		if wr.Digest != second.Workloads[i].Digest {
			t.Errorf("%s: simulated outputs differ between two runs", wr.Name)
		}
		for _, m := range bm.EndToEnd {
			if !printed(out, wr.Name, m.Name, m.Unit) {
				t.Errorf("%s: end-to-end metric %s [%s] not printed", wr.Name, m.Name, m.Unit)
			}
		}
		line, err := summaryLine(report{Workloads: []workloadReport{wr}}, false)
		if err != nil {
			t.Fatal(err)
		}
		var sum struct {
			Metrics map[string]any `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &sum); err != nil {
			t.Fatal(err)
		}
		if len(sum.Metrics) != len(bm.EndToEnd) {
			t.Errorf("%s: summary line carries %d metrics, BENCHMARK.json names %d", wr.Name, len(sum.Metrics), len(bm.EndToEnd))
		}
	}

	traced, out := smokeRun(t, true)
	for _, wr := range traced.Workloads {
		if wr.Failed != 0 {
			t.Errorf("%s traced: %d ops failed: %v", wr.Name, wr.Failed, wr.Notes)
		}
		if wr.Layers == nil {
			t.Errorf("%s: traced run printed no layer table", wr.Name)
		}
	}
	for _, m := range bm.PerLayer {
		d, ok := layerDef(m.Name)
		if !ok {
			t.Errorf("per-layer metric %s is not defined", m.Name)
			continue
		}
		if !printed(out, d.on, m.Name, m.Unit) {
			t.Errorf("per-layer metric %s [%s] not printed for %s", m.Name, m.Unit, d.on)
		}
	}
	if got, want := len(perLayer), len(bm.PerLayer); got != want {
		t.Errorf("agbench defines %d per-layer metrics, BENCHMARK.json names %d", got, want)
	}
}
