package experiments

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestWireOptionsValidate rejects each bad lease field on its own,
// starting from options that validate, and accepts the zero values that
// select defaults.
func TestWireOptionsValidate(t *testing.T) {
	for _, o := range []Options{DefaultOptions(), QuickOptions()} {
		if err := o.Wire().Validate(); err != nil {
			t.Fatalf("stock options rejected: %v", err)
		}
	}
	ok := QuickOptions().Wire()
	ok.SettleSec, ok.MeasureSec, ok.TargetCI, ok.Workers, ok.Nodes = 0, 0, 0, 0, 0
	if err := ok.Validate(); err != nil {
		t.Fatalf("zero settle/measure/ci/workers/nodes rejected: %v", err)
	}

	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		set   func(*WireOptions)
	}{
		{"settle_sec", func(w *WireOptions) { w.SettleSec = -1 }},
		{"settle_sec", func(w *WireOptions) { w.SettleSec = nan }},
		{"settle_sec", func(w *WireOptions) { w.SettleSec = inf }},
		{"measure_sec", func(w *WireOptions) { w.MeasureSec = -0.5 }},
		{"measure_sec", func(w *WireOptions) { w.MeasureSec = nan }},
		{"measure_sec", func(w *WireOptions) { w.MeasureSec = -inf }},
		{"target_ci", func(w *WireOptions) { w.TargetCI = -1 }},
		{"target_ci", func(w *WireOptions) { w.TargetCI = nan }},
		{"target_ci", func(w *WireOptions) { w.TargetCI = inf }},
		{"work_scale", func(w *WireOptions) { w.WorkScale = 0 }},
		{"work_scale", func(w *WireOptions) { w.WorkScale = -1 }},
		{"work_scale", func(w *WireOptions) { w.WorkScale = nan }},
		{"work_scale", func(w *WireOptions) { w.WorkScale = inf }},
		{"workers", func(w *WireOptions) { w.Workers = -1 }},
		{"nodes", func(w *WireOptions) { w.Nodes = -4 }},
	} {
		w := QuickOptions().Wire()
		tc.set(&w)
		err := w.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: got %v, want an error naming %s", w, err, tc.field)
		}
	}
}

// TestRenderUnitRejectsBadOptions: a lease carrying bad options comes back
// as an error from RenderUnit, never as a panic inside the worker. NaN and
// infinities have no JSON form, so the wire carries only the negative and
// zero cases; Validate covers the rest.
func TestRenderUnitRejectsBadOptions(t *testing.T) {
	for _, opts := range []string{
		`{"work_scale":0}`,
		`{"work_scale":-1}`,
		`{"seed":1,"settle_sec":1.2,"measure_sec":0.5,"work_scale":0,"quick":true}`,
		`{"settle_sec":-1,"measure_sec":0.5,"work_scale":0.05,"quick":true}`,
		`{"settle_sec":1.2,"measure_sec":-1,"work_scale":0.05,"quick":true}`,
		`{"settle_sec":1.2,"measure_sec":0.5,"work_scale":0.05,"quick":true,"target_ci":-1}`,
		`{"settle_sec":1.2,"measure_sec":0.5,"work_scale":0.05,"quick":true,"workers":-2}`,
		`{"settle_sec":1.2,"measure_sec":0.5,"work_scale":0.05,"quick":true,"nodes":-1}`,
		`{"work_scale":"x"}`,
		`not json`,
	} {
		for _, id := range []string{"fig4", "ext-datacenter"} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("RenderUnit(%s, %s) panicked: %v", id, opts, r)
					}
				}()
				if out, err := RenderUnit(id, json.RawMessage(opts)); err == nil {
					t.Errorf("RenderUnit(%s, %s) rendered %d bytes, want an error", id, opts, len(out))
				}
			}()
		}
	}
}
