package experiments

import (
	"math"
	"reflect"
	"testing"

	"agsim/internal/firmware"
	"agsim/internal/health"
	"agsim/internal/obs"
)

// attribTallies is the reading health.Evaluate once took from the merged
// event log: per source, the KindAttrib records the rings kept, those
// whose decision was a throttle, and those whose CPM-driven decision
// sensed margin below the deadband. The decision is the packed C's bits 5
// and up (firmware.Attribution.Pack).
func attribTallies(lg *obs.Log) [][3]uint64 {
	tallies := make([][3]uint64, len(lg.Sources))
	for _, ev := range lg.Events {
		if ev.Kind != obs.KindAttrib || ev.Source < 0 || int(ev.Source) >= len(tallies) {
			continue
		}
		tl := &tallies[ev.Source]
		tl[0]++
		d := firmware.Decision(ev.C >> 5 & 0x7)
		if d == firmware.DecisionThrottle {
			tl[1]++
		}
		if d != firmware.DecisionFixed && ev.A < 0 {
			tl[2]++
		}
	}
	return tallies
}

// TestHealthFindingsIndependentOfEventRing runs experiments with event
// rings that keep every event (8192 per shard) and rings that wrap (16),
// on the macro and exact lanes, and evaluates the health detectors with
// every rate threshold near 0, so each chip's droop rate, throttle
// residency and margin exhaustion show as findings. The findings must be
// the same on every run of an experiment, as they come from counters the
// chip keeps at every firmware tick; on a run that lost no event the
// counters must equal the tallies of the KindAttrib records; and every
// finding must stamp no earlier than the latest kept event, so the health
// instants agsim appends to the trace keep it in time order.
func TestHealthFindingsIndependentOfEventRing(t *testing.T) {
	th := health.Default()
	th.DroopStormPerSec = 1e-9
	th.ThrottleResidency = 1e-9
	th.MarginExhaustion = 1e-9
	for _, x := range []struct {
		name string
		run  func(Options)
		// lanes lists the Exact settings run; fig17's exact lane is left
		// out for time.
		lanes []bool
		// ringKeepsAll says the 8192-event rings lose no event. Fig. 17's
		// runs overflow them too.
		ringKeepsAll bool
	}{
		{"ext-aging", func(o Options) { AgingSweep(o) }, []bool{false, true}, true},
		{"fig3", func(o Options) { Fig03CoreScaling(o) }, []bool{false, true}, true},
		{"fig17", func(o Options) { Fig17AdaptiveMapping(o) }, []bool{false}, false},
	} {
		var ref []health.Finding
		residencies := 0
		for _, exact := range x.lanes {
			for _, ringCap := range []int{obs.DefaultEventCap, 16} {
				run := x.name + " macro"
				if exact {
					run = x.name + " exact"
				}
				o := QuickOptions()
				o.Workers = 2
				o.Exact = exact
				o.Recorder = obs.New(x.name, ringCap)
				x.run(o)
				lg := o.Recorder.SnapshotWithEvents()
				findings := health.Evaluate(&lg, th)
				if len(findings) == 0 {
					t.Fatalf("%s, %d-event rings: no finding; the comparison is vacuous", run, ringCap)
				}
				switch {
				case ringCap == 16 && lg.EventsLost == 0:
					t.Fatalf("%s: 16-event rings lost no event", run)
				case ringCap == obs.DefaultEventCap && x.ringKeepsAll && lg.EventsLost != 0:
					t.Fatalf("%s: %d-event rings lost %d events", run, ringCap, lg.EventsLost)
				}

				if lg.EventsLost == 0 {
					for i, tl := range attribTallies(&lg) {
						c := &lg.Sources[i].Counters
						if got := [3]uint64{c[obs.CFirmwareTicks], c[obs.CThrottleDecisions], c[obs.CExhaustedTicks]}; got != tl {
							t.Errorf("%s %s: ticks, throttles, exhausted counted %v, the attribution records tally %v",
								run, lg.Sources[i].Name, got, tl)
						}
					}
				}
				var lastUS int64
				if n := len(lg.Events); n > 0 {
					lastUS = lg.Events[n-1].TimeUS
				}
				for _, f := range findings {
					if f.TimeUS < lastUS {
						t.Fatalf("%s: %s finding stamped %d µs, before the last kept event at %d µs", run, f.Detector, f.TimeUS, lastUS)
					}
					if x.name == "ext-aging" && f.Detector == obs.DetThrottleResidency {
						residencies++
						if math.Round(f.Value*1e4) != 9623 {
							t.Errorf("%s, %d-event rings: throttle residency %.6f, want 0.9623", run, ringCap, f.Value)
						}
					}
				}

				if ref == nil {
					ref = findings
				} else if !reflect.DeepEqual(findings, ref) {
					t.Errorf("%s, %d-event rings: findings differ from the macro run's with 8192-event rings\ngot  %+v\nwant %+v", run, ringCap, findings, ref)
				}
			}
		}
		if x.name == "ext-aging" && residencies == 0 {
			t.Fatal("ext-aging: no throttle-residency finding")
		}
	}
}
