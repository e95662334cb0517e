package chip

import (
	"math"
	"testing"

	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/power"
	"agsim/internal/rng"
	"agsim/internal/tsdb"
	"agsim/internal/workload"
)

// tsRecorder builds a recorder with the telemetry plane enabled, as the
// -timeseries flag does.
func tsRecorder() *obs.Recorder {
	r := obs.New("rec", 4096)
	r.EnableTimeSeries(tsdb.DefaultSpec())
	return r
}

// buildIdentityChip constructs one chip for the telemetry tests with a
// deliberately messy setup: SMT pairs, mixed workloads, a short thread that
// completes mid-run, a throttled core, an idle core, a gated core, and
// aging.
func buildIdentityChip(seed uint64, exact bool, rec *obs.Recorder) *Chip {
	cfg := DefaultConfig("c", seed)
	cfg.Exact = exact
	cfg.Recorder = rec
	c := MustNew(cfg)

	r := rng.New(seed, "threads")
	ray := workload.MustGet("raytrace")
	lu := workload.MustGet("lu_cb")
	fft := workload.MustGet("fft")
	water := workload.MustGet("water_nsquared")
	c.Place(0, workload.NewThread(ray, 1e6, r.Split("t0a")), workload.NewThread(lu, 1e6, r.Split("t0b")))
	c.Place(1, workload.NewThread(water, 1e6, r.Split("t1")))
	c.Place(2, workload.NewThread(fft, 1e6, r.Split("t2")))
	// Core 3's thread finishes partway through the run, exercising the
	// completion event and the dead-thread demand paths.
	c.Place(3, workload.NewThread(ray, 0.2, r.Split("t3")))
	c.Place(4, workload.NewThread(lu, 1e6, nil))
	c.Place(5, workload.NewThread(water, 1e6, r.Split("t5")))
	c.SetIssueThrottle(5, 0.6)
	c.SetMemFactor(1, 1.2)
	// Core 6 stays IdleOn; core 7 is gated.
	c.SetCoreState(7, power.Gated)
	c.AgeBy(1.5)
	c.SetMode(firmware.Undervolt)
	return c
}

// TestTimeseriesMacroMatchesExactCoverage pins the leap backfill
// semantics: the macro lane's Fill calls must land exactly one sample on
// every 1 ms grid point the exact lane pushes — identical per-window
// sample counts at every resolution — and the window means must agree
// within the macro lane's documented accuracy budget.
func TestTimeseriesMacroMatchesExactCoverage(t *testing.T) {
	run := func(exact bool) *obs.Log {
		rec := tsRecorder()
		c := buildIdentityChip(77, exact, rec)
		c.Settle(1)
		c.Settle(0.5)
		log := rec.Snapshot()
		return &log
	}
	exactLog, macroLog := run(true), run(false)
	for _, name := range []string{"power_w", "rail_mv", "freq_mhz", "margin_bits"} {
		_, we, oke := exactLog.MergedSeries(name)
		_, wm, okm := macroLog.MergedSeries(name)
		if !oke || !okm {
			t.Fatalf("series %s missing (exact %v, macro %v)", name, oke, okm)
		}
		for li := range we {
			if len(we[li]) != len(wm[li]) {
				t.Fatalf("%s level %d: %d exact windows, %d macro windows", name, li, len(we[li]), len(wm[li]))
			}
			for i := range we[li] {
				e, m := we[li][i], wm[li][i]
				if e.StartUS != m.StartUS || e.Cnt != m.Cnt {
					t.Fatalf("%s level %d window %d: exact {start %d cnt %d}, macro {start %d cnt %d}",
						name, li, i, e.StartUS, e.Cnt, m.StartUS, m.Cnt)
				}
				if e.Mean() != 0 && math.Abs(m.Mean()-e.Mean())/math.Abs(e.Mean()) > 0.01 {
					t.Fatalf("%s level %d window %d: mean drift exact %v macro %v", name, li, i, e.Mean(), m.Mean())
				}
			}
		}
	}
}

// TestTimeseriesSampledWithinBounds pins the sampled lane's contract: a
// fast-forward backfills the same grid coverage (sample counts per
// window) and the tick-rate attribution stream keeps firing; values are
// statistical, held to a loose band rather than bit equality.
func TestTimeseriesSampledWithinBounds(t *testing.T) {
	mkChip := func() (*Chip, *obs.Recorder) {
		rec := tsRecorder()
		c := buildIdentityChip(3131, false, rec)
		c.Settle(1)
		return c, rec
	}
	macro, recM := mkChip()
	sampled, recS := mkChip()
	const span = 2.0
	macro.Settle(span)
	sampled.FastForward(sampled.SampleHint(span))

	logM, logS := recM.Snapshot(), recS.Snapshot()
	_, wm, _ := logM.MergedSeries("power_w")
	_, ws, okS := logS.MergedSeries("power_w")
	if !okS {
		t.Fatal("sampled lane recorded no power series")
	}
	// Same top-level grid coverage: the fast-forward must backfill every
	// 1.024 s window the macro lane covered.
	top := len(wm) - 1
	if len(wm[top]) != len(ws[top]) {
		t.Fatalf("top-level windows: macro %d, sampled %d", len(wm[top]), len(ws[top]))
	}
	for i := range wm[top] {
		m, s := wm[top][i], ws[top][i]
		if m.StartUS != s.StartUS || m.Cnt != s.Cnt {
			t.Fatalf("top window %d: macro {start %d cnt %d}, sampled {start %d cnt %d}",
				i, m.StartUS, m.Cnt, s.StartUS, s.Cnt)
		}
		if m.Mean() != 0 && math.Abs(s.Mean()-m.Mean())/math.Abs(m.Mean()) > 0.05 {
			t.Fatalf("top window %d: sampled mean %v strays from macro %v", i, s.Mean(), m.Mean())
		}
	}
	// Frozen ticks must keep producing attribution records.
	var attribs int
	for _, ev := range logS.Events {
		if ev.Kind == obs.KindAttrib {
			attribs++
		}
	}
	if want := int(span/firmware.TickSeconds+0.5) / 2; attribs < want {
		t.Fatalf("sampled lane produced %d attribution records, want >= %d", attribs, want)
	}
}
