package main

import "agsim/internal/experiments"

// metricDef names a per-layer metric, its unit and direction, the
// workload it is measured on, the end-to-end metric a change to its layer
// should move there, and where a traced child reads it: the median
// duration of the spans called span (in ms, times factor), a count or
// samples of the pass named by pass (the traced one when empty, else
// "setup" or "untraced"), or a kernel-phase row.
type metricDef struct {
	name, unit, better string
	on, moves          string
	span               string
	factor             float64
	count, pass        string
}

// boundedEndToEnd are the end-to-end metrics BENCHMARK.json bounds: every
// workload reports them, with values that are never zero, and the last
// JSON line of an untraced run carries them. The deterministic err_vs_ref
// and fail_frac travel there as correct and failed.
var boundedEndToEnd = []string{"setup_s", "norm_wall_s", "peak_rss_mb", "heap_alloc_mb"}

// kernelStages are the step stages the kernel phase times, in step order.
var kernelStages = []string{
	"workload.thread_step", "power.core", "vrm.output", "pdn.plane_drops", "pdn.mesh_drops",
	"didt.step", "vf.margin_mv", "cpm.value", "dpll.track_margin", "vf.fmax", "dpll.slew_toward",
	"firmware.voltage_command",
}

// perLayer lists every per-layer metric of the traced run.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, x := range experiments.Registry() {
		defs = append(defs, metricDef{name: "experiments." + x.ID + ".ms", unit: "ms", better: "lower",
			on: "paper", moves: "norm_wall_s", span: "experiments." + x.ID, factor: 1})
	}
	defs = append(defs,
		metricDef{name: "pdn.mesh_cache_hits", unit: "count", better: "higher", on: "paper", moves: "setup_s", count: "pdn.mesh_cache_hits", pass: "setup"},
		metricDef{name: "chip.new_us", unit: "us", better: "lower", on: "exact-grid", moves: "op_ms_p50", span: "chip.New", factor: 1000},
		metricDef{name: "chip.allocs_per_step", unit: "allocs/step", better: "lower", on: "exact-grid", moves: "op_ms_p50", count: "chip.allocs_per_step", pass: "untraced"},
		metricDef{name: "chip.step_ns", unit: "ns", better: "lower", on: "exact-grid", moves: "norm_wall_s"},
	)
	for _, st := range kernelStages {
		defs = append(defs, metricDef{name: st + "_ns", unit: "ns", better: "lower", on: "exact-grid", moves: "norm_wall_s"})
	}
	defs = append(defs,
		metricDef{name: "chip.step_residual_ns", unit: "ns", better: "lower", on: "exact-grid", moves: "norm_wall_s"},
		metricDef{name: "chip.settle_ms", unit: "ms", better: "lower", on: "sampled-grid", moves: "op_ms_p50", span: "chip.Settle", factor: 1},
		metricDef{name: "sample.run_ms", unit: "ms", better: "lower", on: "sampled-grid", moves: "op_ms_p50", span: "sample.Run", factor: 1},
		metricDef{name: "sample.detailed_frac", unit: "fraction", better: "lower", on: "sampled-grid", moves: "norm_wall_s", count: "sample.detailed_frac"},
		metricDef{name: "sample.full_span_frac", unit: "fraction", better: "lower", on: "sampled-grid", moves: "norm_wall_s", count: "sample.full_span_frac"},
		metricDef{name: "fleet.capacity_read_us", unit: "us", better: "lower", on: "fleet-serve", moves: "op_ms_p50", span: "fleet.capacity_read", factor: 1000},
		metricDef{name: "fleet.advance_ms", unit: "ms", better: "lower", on: "fleet-serve", moves: "op_ms_p50", span: "fleet.Advance", factor: 1},
		metricDef{name: "traffic.epoch_ms", unit: "ms", better: "lower", on: "fleet-serve", moves: "op_ms_p50", span: "traffic.Epoch", factor: 1},
		metricDef{name: "traffic.requests", unit: "count", better: "higher", on: "fleet-serve", moves: "norm_wall_s", count: "traffic.requests"},
		metricDef{name: "traffic.shed_frac", unit: "fraction", better: "lower", on: "fleet-serve", moves: "norm_wall_s", count: "traffic.shed_frac"},
		metricDef{name: "obs.snapshot_ms", unit: "ms", better: "lower", on: "fleet-serve", moves: "read_ms_p50", span: "obs.Snapshot", factor: 1},
		metricDef{name: "tsdb.merged_series_ms", unit: "ms", better: "lower", on: "fleet-serve", moves: "read_ms_p50", span: "tsdb.MergedSeries", factor: 1},
		metricDef{name: "health.evaluate_ms", unit: "ms", better: "lower", on: "fleet-serve", moves: "read_ms_p50", span: "health.Evaluate", factor: 1},
		metricDef{name: "snapshot.save_ms", unit: "ms", better: "lower", on: "fleet-serve", moves: "checkpoint_ms", span: "snapshot.Save", factor: 1},
		metricDef{name: "snapshot.load_ms", unit: "ms", better: "lower", on: "fleet-serve", moves: "restore_ms", span: "snapshot.Load", factor: 1},
		metricDef{name: "snapshot.image_mb", unit: "MB", better: "lower", on: "fleet-serve", moves: "peak_rss_mb", count: "snapshot.image_mb"},
		metricDef{name: "chip.micro_steps", unit: "count", better: "lower", on: "fleet-serve", moves: "norm_wall_s", count: "chip.micro_steps"},
		metricDef{name: "chip.macro_steps", unit: "count", better: "higher", on: "fleet-serve", moves: "norm_wall_s", count: "chip.macro_steps"},
		metricDef{name: "read_ms_p50", unit: "ms", better: "lower", on: "fleet-serve", moves: "norm_wall_s"},
		metricDef{name: "read_ms_p90", unit: "ms", better: "lower", on: "fleet-serve", moves: "norm_wall_s"},
		metricDef{name: "trace.overhead_frac", unit: "fraction", better: "lower", on: "all", moves: "none"},
	)
	return defs
}()

// layerDef looks a per-layer metric up.
func layerDef(name string) (metricDef, bool) {
	for _, d := range perLayer {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// passMetrics computes the end-to-end metrics of a workload's timed
// passes, pooled over its processes, with the processes' set-up times and
// peak resident sets.
func passMetrics(passes []passSummary, setups, rawSetups, rss []float64, errVsRef float64, failed, attempted int) []metric {
	var walls, norms, rates, allocs, checkpoints, restores []float64
	var ops, reads [][]float64
	for _, p := range passes {
		walls = append(walls, p.WallS)
		norms = append(norms, p.NormS)
		if p.SimSec > 0 {
			rates = append(rates, p.SimSec/p.WallS)
		}
		allocs = append(allocs, p.Counts["heap_alloc_mb"])
		ops = append(ops, p.OpMS)
		if r := p.Samples["read_ms"]; len(r) > 0 {
			reads = append(reads, r)
		}
		checkpoints = append(checkpoints, p.Samples["checkpoint_ms"]...)
		restores = append(restores, p.Samples["restore_ms"]...)
	}
	ms := []metric{
		summarize("setup_s", "s", "lower", setups),
		summarize("raw_setup_s", "s", "lower", rawSetups),
		summarize("norm_wall_s", "s", "lower", norms),
		summarize("wall_s", "s", "lower", walls),
	}
	if len(rates) > 0 {
		ms = append(ms, summarize("sim_rate", "sim-s/host-s", "higher", rates))
	}
	ms = append(ms, percentile("op_ms_p50", ops, 0.50), percentile("op_ms_p95", ops, 0.95))
	if len(reads) > 0 {
		ms = append(ms,
			percentile("read_ms_p50", reads, 0.50),
			percentile("read_ms_p90", reads, 0.90),
			summarize("checkpoint_ms", "ms", "lower", checkpoints),
			summarize("restore_ms", "ms", "lower", restores))
	}
	return append(ms,
		summarize("peak_rss_mb", "MB", "lower", rss),
		summarize("heap_alloc_mb", "MB", "lower", allocs),
		single("err_vs_ref", "x_tol", "lower", errVsRef),
		single("fail_frac", "fraction", "lower", float64(failed)/float64(max(attempted, 1))))
}
