package experiments

import (
	"reflect"
	"testing"

	"agsim/internal/obs"
)

// The flight recorder extends the sweep engine's determinism contract to
// the observability stream itself: every sweep point records into a shard
// named by its work-unit tag, Snapshot merges shards by sorted name and
// stable event-time order, and all physical events carry grid-aligned
// integer-microsecond stamps. These tests pin both halves of the contract:
// bit-identical snapshots at any worker count, and identical physical
// event streams between the macro lane and the exact 1 ms lane.

func recordedOpts(workers int, exact bool) Options {
	o := QuickOptions()
	o.Workers = workers
	o.Exact = exact
	o.Recorder = obs.New("test", obs.DefaultEventCap)
	return o
}

func TestRecorderWorkerCountBitIdentical(t *testing.T) {
	serial := recordedOpts(1, false)
	par := recordedOpts(4, false)
	Fig03CoreScaling(serial)
	Fig03CoreScaling(par)
	a := serial.Recorder.Snapshot()
	b := par.Recorder.Snapshot()
	if a.EventsLost != 0 || b.EventsLost != 0 {
		t.Fatalf("ring overflowed (lost %d/%d); grow the cap so the comparison sees every event", a.EventsLost, b.EventsLost)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("recorder snapshot differs between 1 and 4 workers:\nserial sources=%d events=%d\nparallel sources=%d events=%d",
			len(a.Sources), len(a.Events), len(b.Sources), len(b.Events))
	}
}

func TestRecorderServerSweepBitIdentical(t *testing.T) {
	// The server/cluster path shards per node; Fig12 exercises the
	// two-socket server builders.
	serial := recordedOpts(1, false)
	par := recordedOpts(4, false)
	Fig12LoadlineBorrowing(serial)
	Fig12LoadlineBorrowing(par)
	if !reflect.DeepEqual(serial.Recorder.Snapshot(), par.Recorder.Snapshot()) {
		t.Error("server-sweep recorder snapshot differs between 1 and 4 workers")
	}
}

// physicalEvents strips engine-descriptive records (macro leaps, whose
// count and spacing are a property of the stepping engine, not the
// simulated hardware) so the remainder must match across stepping lanes.
func physicalEvents(lg obs.Log) []obs.Event {
	out := make([]obs.Event, 0, len(lg.Events))
	for _, ev := range lg.Events {
		if ev.Kind == obs.KindLeap {
			continue
		}
		out = append(out, ev)
	}
	return out
}

func TestRecorderMacroExactEventStreamsMatch(t *testing.T) {
	macro := recordedOpts(2, false)
	exact := recordedOpts(2, true)
	Fig03CoreScaling(macro)
	Fig03CoreScaling(exact)
	a := macro.Recorder.Snapshot()
	b := exact.Recorder.Snapshot()
	if a.EventsLost != 0 || b.EventsLost != 0 {
		t.Fatalf("ring overflowed (lost %d/%d)", a.EventsLost, b.EventsLost)
	}
	ae, be := physicalEvents(a), physicalEvents(b)
	if len(ae) != len(be) {
		t.Fatalf("physical event counts differ: macro %d, exact %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("physical event %d differs:\nmacro: %+v\nexact: %+v", i, ae[i], be[i])
		}
	}
	// The physical counters — everything the hardware did, as opposed to
	// how the engine stepped it — must agree too.
	for _, c := range []obs.CounterID{
		obs.CFirmwareTicks, obs.CDidtEvents, obs.CDroopsAbsorbed,
		obs.CDroopsLatched, obs.CMarginViolations, obs.CThreadsCompleted,
		obs.CRailCommands, obs.CModeChanges, obs.CThrottleChanges,
	} {
		if am, bm := a.TotalCounter(c), b.TotalCounter(c); am != bm {
			t.Errorf("counter %s differs: macro %d, exact %d", obs.CounterName(c), am, bm)
		}
	}
}

func TestRecorderSameSeedRunsMatch(t *testing.T) {
	a := recordedOpts(4, false)
	b := recordedOpts(4, false)
	Fig03CoreScaling(a)
	Fig03CoreScaling(b)
	if !reflect.DeepEqual(a.Recorder.Snapshot(), b.Recorder.Snapshot()) {
		t.Error("two same-seed recorded runs diverged")
	}
}

// TestFig17MicroStepsPerTick gates the macro lane's quiescence detector on
// the experiment that stresses it most: after each firmware tick an
// overclocked Fig. 17 chip needs the tick step, the wobble step and one
// contracting relaxation step before it may leap again. A detector that
// waits for the relaxation to finish inside the bands spends over five
// micro-steps per tick here.
func TestFig17MicroStepsPerTick(t *testing.T) {
	o := QuickOptions()
	o.Workers = 1
	o.Recorder = obs.New("fig17", 0)
	Fig17AdaptiveMapping(o)
	lg := o.Recorder.Snapshot()
	micro, ticks := lg.TotalCounter(obs.CMicroSteps), lg.TotalCounter(obs.CFirmwareTicks)
	if ticks == 0 {
		t.Fatal("no firmware ticks recorded")
	}
	perTick := float64(micro) / float64(ticks)
	t.Logf("fig17: %.2f micro-steps per firmware tick (%d / %d)", perTick, micro, ticks)
	if perTick > 4.0 {
		t.Errorf("fig17 spends %.2f micro-steps per firmware tick, want ≤ 4.0", perTick)
	}
}
