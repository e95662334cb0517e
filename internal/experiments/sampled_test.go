package experiments

import (
	"math"
	"reflect"
	"testing"

	"agsim/internal/firmware"
	"agsim/internal/sample"
	"agsim/internal/workload"
)

// This file is the accuracy and determinism harness of the sampled lane
// (Options.Sampled, the -sampled flag): every registered experiment's
// headline statistics must land within their stated confidence interval of
// the exact 1 ms lane, and the governor's decisions must be bit-identical
// at any worker count on both PDN models.

// sampledTol returns the acceptance band for one sampled statistic: the
// stated error bar plus the macro lane's own 1%/0.05 accuracy band. The
// two sources compose — a sampled estimate carries its extrapolation
// noise (bounded by the CI) on top of the lane-level discrepancy its
// detailed windows inherit from the multi-rate engine (a sampled run that
// never extrapolated reports CI 0 but still differs from -exact exactly
// as the macro lane does), and derived headline metrics such as the
// improvement percentages amplify the underlying power errors.
func sampledTol(exact, ci float64) float64 {
	return ci + headlineTol(exact)
}

func TestSampledLaneHeadlinesWithinCI(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			sampledOpts := QuickOptions()
			sampledOpts.Sampled = true
			exactOpts := QuickOptions()
			exactOpts.Exact = true
			sampled := e.Run(sampledOpts)
			exact := e.Run(exactOpts)
			if len(sampled.Headline) != len(exact.Headline) {
				t.Fatalf("headline count differs: sampled %d, exact %d", len(sampled.Headline), len(exact.Headline))
			}
			for i, ss := range sampled.Headline {
				es := exact.Headline[i]
				if ss.Name != es.Name {
					t.Fatalf("headline %d name differs: %q vs %q", i, ss.Name, es.Name)
				}
				tol := sampledTol(es.Value, ss.CI)
				if d := math.Abs(ss.Value - es.Value); d > tol {
					t.Errorf("%s: sampled %.6g ±%.4g vs exact %.6g (|Δ|=%.4g > tol %.4g)",
						ss.Name, ss.Value, ss.CI, es.Value, d, tol)
				}
			}
		})
	}
}

// TestSampledLaneDeterminismMatrix pins the sampled lane's determinism
// contract across the full matrix: every registered experiment, workers 1
// vs 4, lumped plane and distributed mesh. Governor decisions are a pure
// function of per-point simulated state and the error-bar aggregates are
// order-independent (the worst CI is a maximum), so worker count cannot
// change a single reported bit.
func TestSampledLaneDeterminismMatrix(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			for _, mesh := range []bool{false, true} {
				run := func(w int) Report {
					o := QuickOptions()
					o.Sampled = true
					o.Workers = w
					o.Mesh = mesh
					return e.Run(o)
				}
				serial := run(1)
				par := run(4)
				// The RunStats sink's detailed/fast second totals are float
				// sums folded in worker order; only its order-independent
				// aggregates are reported, so compare those and the rendered
				// report separately.
				if serial.Sampling.WorstRelCI() != par.Sampling.WorstRelCI() {
					t.Errorf("mesh=%v: worst rel CI diverged across worker counts: %v vs %v",
						mesh, serial.Sampling.WorstRelCI(), par.Sampling.WorstRelCI())
				}
				st, sf := serial.Sampling.Spans()
				pt, pf := par.Sampling.Spans()
				if st != pt || sf != pf {
					t.Errorf("mesh=%v: span counts diverged across worker counts: (%d,%d) vs (%d,%d)",
						mesh, st, sf, pt, pf)
				}
				serial.Sampling, par.Sampling = nil, nil
				if !reflect.DeepEqual(serial, par) {
					t.Errorf("mesh=%v: sampled report diverged across worker counts:\nserial: %+v\nparallel: %+v",
						mesh, serial, par)
				}
			}
		})
	}
}

// TestSampledFallbackOnPhasedWorkload forces high variance on a real chip:
// the load itself changes phase, as Pac-Sim's live detector sees it. Every
// 100 ms of covered time the four loaded cores' issue throttle flips
// between 1 and 0.3, so consecutive detailed windows disagree and the
// governor must hold full simulation — zero extrapolated seconds, zero
// reported CI.
func TestSampledFallbackOnPhasedWorkload(t *testing.T) {
	o := QuickOptions()
	o.Sampled = true
	c := newChip(o, "sampled-fallback")
	const cores, phaseSec = 4, 0.1
	placeThreads(c, workload.MustGet("raytrace"), cores)
	c.SetMode(firmware.Undervolt)
	c.Settle(o.SettleSec)
	rs := &sample.RunStats{}
	g := sample.New(c, sample.Config{Stats: rs})
	elapsed, phase := 0.0, 0
	covered := g.Run(2, func(dt float64) {
		elapsed += dt
		if p := int(elapsed / phaseSec); p != phase {
			phase = p
			throttle := 1.0
			if phase%2 == 1 {
				throttle = 0.3
			}
			for i := 0; i < cores; i++ {
				c.SetIssueThrottle(i, throttle)
			}
		}
	})
	if math.Abs(covered-2) > 1e-6 {
		t.Fatalf("covered %v of 2 s", covered)
	}
	if phase < 19 {
		t.Fatalf("load changed phase %d times over 2 s, want 19 or more", phase)
	}
	if g.FastSec() != 0 {
		t.Errorf("phased workload extrapolated %v s, want 0 (full-simulation fallback)", g.FastSec())
	}
	if ci := rs.WorstRelCI(); ci != 0 {
		t.Errorf("worst rel CI %v for a full-simulation span, want 0", ci)
	}
	if frac := rs.DetailedFraction(); frac != 1 {
		t.Errorf("detailed fraction %v, want 1", frac)
	}
	releaseChip(c)
}

// TestSampledSteadyChipExtrapolates is the fallback test's complement: the
// same chip with its throttle left alone converges and skips most of the
// span.
func TestSampledSteadyChipExtrapolates(t *testing.T) {
	o := QuickOptions()
	o.Sampled = true
	c := newChip(o, "sampled-steady")
	placeThreads(c, workload.MustGet("raytrace"), 4)
	c.SetMode(firmware.Undervolt)
	c.Settle(o.SettleSec)
	rs := &sample.RunStats{}
	g := sample.New(c, sample.Config{Stats: rs})
	covered := g.Run(4, nil)
	if math.Abs(covered-4) > 1e-6 {
		t.Fatalf("covered %v of 4 s", covered)
	}
	if g.FastSec() == 0 {
		t.Fatal("steady chip never extrapolated")
	}
	if frac := rs.DetailedFraction(); frac > 0.5 {
		t.Errorf("detailed fraction %v on a steady chip, want < 0.5", frac)
	}
	if ci := rs.WorstRelCI(); ci > 0.01 {
		t.Errorf("worst rel CI %v, want <= target 0.01", ci)
	}
	releaseChip(c)
}
