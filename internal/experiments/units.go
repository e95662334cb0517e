// Distributed sweep units: one unit is one registered experiment, the
// granularity internal/sweepd leases to worker processes. Every experiment
// is a deterministic function of its Options, and RenderUnit's output is
// plain formatted text, so a render is byte-identical wherever it ran —
// the property that makes the coordinator's in-order merge equal a serial
// run (pinned by the sweepd tests and the `make ci` two-worker smoke).
package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// WireOptions is the JSON wire form of Options carried in a sweep lease:
// the deterministic knobs only — no recorder (a distributed run has no
// shared recorder tree) and no in-process sinks.
type WireOptions struct {
	Seed       uint64  `json:"seed"`
	SettleSec  float64 `json:"settle_sec"`
	MeasureSec float64 `json:"measure_sec"`
	WorkScale  float64 `json:"work_scale"`
	Quick      bool    `json:"quick"`
	Workers    int     `json:"workers"`
	Mesh       bool    `json:"mesh"`
	Exact      bool    `json:"exact"`
	Nodes      int     `json:"nodes"`
	Sampled    bool    `json:"sampled"`
	TargetCI   float64 `json:"target_ci"`
}

// Wire extracts the deterministic knobs for a sweep lease.
func (o Options) Wire() WireOptions {
	return WireOptions{
		Seed: o.Seed, SettleSec: o.SettleSec, MeasureSec: o.MeasureSec,
		WorkScale: o.WorkScale, Quick: o.Quick, Workers: o.Workers,
		Mesh: o.Mesh, Exact: o.Exact, Nodes: o.Nodes,
		Sampled: o.Sampled, TargetCI: o.TargetCI,
	}
}

// Options rehydrates the wire form.
func (w WireOptions) Options() Options {
	return Options{
		Seed: w.Seed, SettleSec: w.SettleSec, MeasureSec: w.MeasureSec,
		WorkScale: w.WorkScale, Quick: w.Quick, Workers: w.Workers,
		Mesh: w.Mesh, Exact: w.Exact, Nodes: w.Nodes,
		Sampled: w.Sampled, TargetCI: w.TargetCI,
	}
}

// Validate reports the first option no experiment can run with: a
// non-finite or negative settle, measure or CI value, a work scale that is
// not finite and positive, or a negative worker or node count. Zero
// settle and measure spans are valid; zero CI, workers and nodes select
// their defaults. Experiments panic on a non-positive work scale, and a
// NaN CI target never closes, so the sampled lane would never extrapolate.
func (w WireOptions) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"settle_sec", w.SettleSec}, {"measure_sec", w.MeasureSec}, {"target_ci", w.TargetCI}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("experiments: %s %v: want a finite value >= 0", f.name, f.v)
		}
	}
	if !(w.WorkScale > 0) || math.IsInf(w.WorkScale, 1) {
		return fmt.Errorf("experiments: work_scale %v: want a finite value > 0", w.WorkScale)
	}
	if w.Workers < 0 {
		return fmt.Errorf("experiments: workers %d: want >= 0", w.Workers)
	}
	if w.Nodes < 0 {
		return fmt.Errorf("experiments: nodes %d: want >= 0", w.Nodes)
	}
	return nil
}

// UnitIDs returns every registered experiment id in registry (merge)
// order.
func UnitIDs() []string {
	reg := Registry()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	return ids
}

// RenderUnit runs one registered experiment and renders its report as
// deterministic text: the unit of work a sweep worker returns and the
// serial reference produces. opts is the lease's WireOptions JSON.
func RenderUnit(id string, opts json.RawMessage) (string, error) {
	var w WireOptions
	if err := json.Unmarshal(opts, &w); err != nil {
		return "", fmt.Errorf("experiments: unit %s: bad options: %w", id, err)
	}
	if err := w.Validate(); err != nil {
		return "", fmt.Errorf("experiments: unit %s: %w", id, err)
	}
	e, ok := Lookup(id)
	if !ok {
		return "", fmt.Errorf("experiments: unknown unit %q", id)
	}
	rep := e.Run(w.Options())
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s\n", e.ID, e.Title)
	if err := rep.Write(&sb, true); err != nil {
		return "", fmt.Errorf("experiments: unit %s: render: %w", id, err)
	}
	sb.WriteString("\n")
	return sb.String(), nil
}
