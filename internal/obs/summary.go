package obs

import (
	"agsim/internal/trace"
)

// Terminal faces: the per-experiment summary table `agsim run -events`
// prints, and the event-log-driven timeline figure that replaces ad-hoc
// sampling paths — trace.RenderASCII draws it straight from the recorded
// events, so what the terminal shows is exactly what the Chrome trace
// contains.

// SummaryTable tabulates the log's counters and event-ring state.
func (l *Log) SummaryTable() *trace.Table {
	t := trace.NewTable("flight recorder — "+l.Name, "total")
	for c := 0; c < NumCounters; c++ {
		t.AddRow(counterMeta[c].name, float64(l.TotalCounter(CounterID(c))))
	}
	t.AddRow("events_recorded", float64(len(l.Events)))
	t.AddRow("events_lost", float64(l.EventsLost))
	if l.Hists[HLeapSec].Count > 0 {
		t.AddRow("macro_leap_mean_ms",
			l.Hists[HLeapSec].Sum/float64(l.Hists[HLeapSec].Count)*1000)
	}
	// The ratio the quiescence gates read: a settled chip needs only a few
	// micro-steps per 32 ms tick, the 1 ms lane needs 32.
	if ticks := l.TotalCounter(CFirmwareTicks); ticks > 0 {
		t.AddRow("micro_steps_per_tick", float64(l.TotalCounter(CMicroSteps))/float64(ticks))
	}
	return t
}

// TimelineFigure builds a figure from the event log: droop depths, window
// CPM minima, rail set-point moves and macro-leap lengths against
// simulated seconds.
func (l *Log) TimelineFigure() *trace.Figure {
	f := trace.NewFigure("flight recorder timeline — " + l.Name)
	droop := f.NewSeries("droop depth (mV)", "sim s", "mV")
	sticky := f.NewSeries("window min sticky CPM", "sim s", "bits")
	setpt := f.NewSeries("set point (mV)", "sim s", "mV")
	leap := f.NewSeries("macro leap (ms)", "sim s", "ms")
	for _, ev := range l.Events {
		t := float64(ev.TimeUS) / 1e6
		switch ev.Kind {
		case KindDroop:
			droop.Add(t, ev.A)
		case KindWindow:
			sticky.Add(t, ev.B)
		case KindDVFS:
			if ev.C < 0 {
				setpt.Add(t, ev.A)
			}
		case KindLeap:
			leap.Add(t, ev.A*1000)
		}
	}
	return f
}
