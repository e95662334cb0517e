package health

import (
	"fmt"
	"testing"

	"agsim/internal/firmware"
	"agsim/internal/obs"
)

// mkLog snapshots a single-shard recorder after build mutates it. The
// recorder keeps no events: the detectors read none.
func mkLog(t *testing.T, build func(r *obs.Recorder)) *obs.Log {
	t.Helper()
	r := obs.New("t", 0)
	build(r)
	log := r.Snapshot()
	return &log
}

// addTicks records n guardband ticks for src with the given decision and
// sensed margin bits, counting them as the chip's attribution emitter
// does.
func addTicks(r *obs.Recorder, src int32, n int, d firmware.Decision, marginBits int) {
	r.Add(src, obs.CFirmwareTicks, uint64(n))
	if d == firmware.DecisionThrottle {
		r.Add(src, obs.CThrottleDecisions, uint64(n))
	}
	if d != firmware.DecisionFixed && marginBits < 0 {
		r.Add(src, obs.CExhaustedTicks, uint64(n))
	}
}

func findingsFor(fs []Finding, d obs.HealthDetector) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Detector == d {
			out = append(out, f)
		}
	}
	return out
}

func TestHealthyLogHasNoFindings(t *testing.T) {
	log := mkLog(t, func(r *obs.Recorder) {
		src := r.Source("chip0")
		r.SetGauge(src, obs.GTimeSec, 2)
		r.Add(src, obs.CDidtEvents, 20) // 10/s, well under 50/s
		addTicks(r, src, 16, firmware.DecisionBoost, 3)
		r.Add(src, obs.CRequestsServed, 1000)
	})
	if fs := Evaluate(log, Default()); len(fs) != 0 {
		t.Fatalf("healthy log produced findings: %+v", fs)
	}
	if Worst(nil) != obs.HealthOK {
		t.Fatal("Worst of no findings must be OK")
	}
}

// fleetLog snapshots a fleet-shaped recorder tree, laid out as obs's
// benchSnapshotTree is: 64 node shards of one chip each, every chip 3 s
// into a healthy run of 93 firmware ticks.
func fleetLog() obs.Log {
	root := obs.New("bench", 0)
	for n := 0; n < 64; n++ {
		sh := root.Shard(fmt.Sprintf("node%04d", n))
		src := sh.Source("chip")
		sh.SetGauge(src, obs.GTimeSec, 3)
		sh.Add(src, obs.CDidtEvents, uint64(n%20))
		addTicks(sh, src, 90, firmware.DecisionBoost, 2)
		addTicks(sh, src, 3, firmware.DecisionThrottle, -1)
		sh.Add(src, obs.CRequestsServed, 1000)
	}
	return root.Snapshot()
}

func TestEvaluateHealthyLogDoesNotAllocate(t *testing.T) {
	lg := fleetLog()
	th := Default()
	if fs := Evaluate(&lg, th); len(fs) != 0 {
		t.Fatalf("healthy fleet produced findings: %+v", fs)
	}
	if got := testing.AllocsPerRun(100, func() { Evaluate(&lg, th) }); got != 0 {
		t.Fatalf("Evaluate of a healthy log allocates %v allocs/op, want 0", got)
	}
}

// TestFindingsStampTheLatestGauge requires every finding to stamp the
// latest simulated time any source's gauge reached, read from the gauges
// alone: the log holds no event, and one source lags the other.
func TestFindingsStampTheLatestGauge(t *testing.T) {
	log := mkLog(t, func(r *obs.Recorder) {
		a := r.Source("chip0")
		b := r.Source("chip1")
		r.SetGauge(a, obs.GTimeSec, 1.5)
		r.SetGauge(b, obs.GTimeSec, 2.25)
		r.Add(a, obs.CDidtEvents, 300)
		r.Add(b, obs.CDidtEvents, 300)
	})
	fs := Evaluate(log, Default())
	if len(fs) != 2 {
		t.Fatalf("want a droop storm on each chip, got %+v", fs)
	}
	for _, f := range fs {
		if f.TimeUS != 2_250_000 {
			t.Errorf("%s finding stamped %d µs, want 2250000", f.Source, f.TimeUS)
		}
	}
}

func TestDroopStormGrades(t *testing.T) {
	for _, tc := range []struct {
		events uint64
		want   obs.HealthStatus
	}{
		{40, obs.HealthOK},        // 40/s under the 50/s line
		{75, obs.HealthWarn},      // 75/s
		{150, obs.HealthCritical}, // 150/s > 2x line
	} {
		log := mkLog(t, func(r *obs.Recorder) {
			src := r.Source("chip0")
			r.SetGauge(src, obs.GTimeSec, 1)
			r.Add(src, obs.CDidtEvents, tc.events)
		})
		fs := findingsFor(Evaluate(log, Default()), obs.DetDroopStorm)
		if tc.want == obs.HealthOK {
			if len(fs) != 0 {
				t.Fatalf("%d events/s: unexpected findings %+v", tc.events, fs)
			}
			continue
		}
		if len(fs) != 1 || fs[0].Status != tc.want {
			t.Fatalf("%d events/s: got %+v, want status %v", tc.events, fs, tc.want)
		}
		if fs[0].Value != float64(tc.events) {
			t.Fatalf("rate %v, want %v", fs[0].Value, float64(tc.events))
		}
	}
}

func TestThrottleResidencyAndMinTicks(t *testing.T) {
	// 6 of 16 ticks throttled = 37.5% > 25% line → warn.
	log := mkLog(t, func(r *obs.Recorder) {
		src := r.Source("chip0")
		r.SetGauge(src, obs.GTimeSec, 1)
		addTicks(r, src, 10, firmware.DecisionBoost, 3)
		addTicks(r, src, 6, firmware.DecisionThrottle, 1)
	})
	fs := findingsFor(Evaluate(log, Default()), obs.DetThrottleResidency)
	if len(fs) != 1 || fs[0].Status != obs.HealthWarn {
		t.Fatalf("got %+v, want one warn", fs)
	}

	// The same residency on too few ticks is not evidence.
	log = mkLog(t, func(r *obs.Recorder) {
		src := r.Source("chip0")
		r.SetGauge(src, obs.GTimeSec, 1)
		addTicks(r, src, 2, firmware.DecisionBoost, 3)
		addTicks(r, src, 2, firmware.DecisionThrottle, 1)
	})
	if fs := Evaluate(log, Default()); len(fs) != 0 {
		t.Fatalf("under-MinTicks source fired: %+v", fs)
	}
}

func TestMarginExhaustion(t *testing.T) {
	// 12 of 16 ticks below the deadband = 75% > the 50% line → warn.
	log := mkLog(t, func(r *obs.Recorder) {
		src := r.Source("chip0")
		r.SetGauge(src, obs.GTimeSec, 1)
		addTicks(r, src, 12, firmware.DecisionThrottle, -2)
		addTicks(r, src, 4, firmware.DecisionBoost, 3)
	})
	fs := findingsFor(Evaluate(log, Default()), obs.DetMarginExhaustion)
	if len(fs) != 1 || fs[0].Status != obs.HealthWarn {
		t.Fatalf("got %+v, want one warn", fs)
	}

	// Every tick exhausted is twice the line → critical.
	log = mkLog(t, func(r *obs.Recorder) {
		src := r.Source("chip0")
		r.SetGauge(src, obs.GTimeSec, 1)
		addTicks(r, src, 16, firmware.DecisionHold, -1)
	})
	fs = findingsFor(Evaluate(log, Default()), obs.DetMarginExhaustion)
	if len(fs) != 1 || fs[0].Status != obs.HealthCritical {
		t.Fatalf("got %+v, want one critical", fs)
	}

	// Fixed-mode ticks carry no margin reading and must not count.
	log = mkLog(t, func(r *obs.Recorder) {
		src := r.Source("chip0")
		r.SetGauge(src, obs.GTimeSec, 1)
		addTicks(r, src, 16, firmware.DecisionFixed, -1)
	})
	if fs := findingsFor(Evaluate(log, Default()), obs.DetMarginExhaustion); len(fs) != 0 {
		t.Fatalf("fixed-mode ticks tripped exhaustion: %+v", fs)
	}
}

func TestSLOShedPerNode(t *testing.T) {
	log := mkLog(t, func(r *obs.Recorder) {
		a := r.Source("node0")
		b := r.Source("node1")
		r.Add(a, obs.CRequestsServed, 985)
		r.Add(a, obs.CRequestsDropped, 15) // 1.5% > 1% line, < 2x → warn
		r.Add(b, obs.CRequestsServed, 1000)
	})
	fs := findingsFor(Evaluate(log, Default()), obs.DetSLOBreach)
	if len(fs) != 1 || fs[0].Status != obs.HealthWarn || fs[0].Source != "node0" {
		t.Fatalf("got %+v, want one warn on node0", fs)
	}
}

func TestSLOP99Fleetwide(t *testing.T) {
	log := mkLog(t, func(r *obs.Recorder) {
		r.Source("node0")
		for i := 0; i < 100; i++ {
			r.Observe(obs.HRequestLatencySec, 1.0) // every request at 1 s
		}
	})
	fs := findingsFor(Evaluate(log, Default()), obs.DetSLOBreach)
	if len(fs) != 1 || fs[0].SourceIdx != -1 || fs[0].Status != obs.HealthCritical {
		t.Fatalf("got %+v, want one fleet-wide critical", fs)
	}
	if fs[0].Value <= 0.64 || fs[0].Value > 1.28 {
		t.Fatalf("p99 %v outside the 1 s bucket", fs[0].Value)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	h := obs.HistSnapshot{
		Buckets: []float64{1, 2, 4},
		Counts:  []uint64{10, 10, 0, 0},
		Count:   20,
	}
	// Median sits at the boundary of the second bucket's span.
	if q := Quantile(h, 0.5); q != 1 {
		t.Fatalf("p50 = %v, want 1", q)
	}
	if q := Quantile(h, 0.75); q != 1.5 {
		t.Fatalf("p75 = %v, want 1.5", q)
	}
	// Overflow-bin mass reports the last finite bound.
	h.Counts = []uint64{0, 0, 0, 20}
	if q := Quantile(h, 0.99); q != 4 {
		t.Fatalf("overflow p99 = %v, want last bound 4", q)
	}
	if q := Quantile(obs.HistSnapshot{}, 0.5); q != 0 {
		t.Fatalf("empty hist quantile = %v, want 0", q)
	}
}

func TestEventsRoundTrip(t *testing.T) {
	log := mkLog(t, func(r *obs.Recorder) {
		src := r.Source("chip0")
		r.SetGauge(src, obs.GTimeSec, 1)
		r.Add(src, obs.CDidtEvents, 200)
	})
	fs := Evaluate(log, Default())
	if len(fs) != 1 {
		t.Fatalf("want one finding, got %+v", fs)
	}
	evs := Events(fs)
	if len(evs) != 1 {
		t.Fatalf("want one event, got %d", len(evs))
	}
	ev := evs[0]
	if ev.Kind != obs.KindHealth || ev.Source != fs[0].SourceIdx || ev.Core != -1 {
		t.Fatalf("bad event identity: %+v", ev)
	}
	d, s := obs.UnpackHealth(ev.C)
	if d != obs.DetDroopStorm || s != obs.HealthCritical {
		t.Fatalf("payload decodes to %v/%v", d, s)
	}
	if ev.A != fs[0].Value || ev.B != fs[0].Threshold {
		t.Fatalf("value/threshold did not round-trip: %+v vs %+v", ev, fs[0])
	}
	if Worst(fs) != obs.HealthCritical {
		t.Fatalf("Worst = %v, want critical", Worst(fs))
	}
}

// BenchmarkEvaluate runs every detector over fleetLog's 64 healthy
// chips: the per-scrape health pass of a serving fleet.
func BenchmarkEvaluate(b *testing.B) {
	lg := fleetLog()
	th := Default()
	b.ReportAllocs()
	for b.Loop() {
		if fs := Evaluate(&lg, th); len(fs) != 0 {
			b.Fatalf("healthy fleet produced %d findings", len(fs))
		}
	}
}
