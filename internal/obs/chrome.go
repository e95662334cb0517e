package obs

import (
	"encoding/json"
	"io"
	"strconv"
)

// Chrome trace_event exporter: renders a merged Log in the JSON Object
// Format of the Trace Event specification, openable in Perfetto and
// chrome://tracing. Each recorded source (chip) becomes one process
// track; core-scoped records land on per-core threads, chip-wide records
// on thread 0. Windows and rail moves render as counter tracks so the
// guardband's set-point staircase and CPM margin are visible over time;
// macro-leaps render as duration slices showing what the multi-rate
// engine skipped and why.

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace renders the log as Chrome trace_event JSON. The events
// are the log's Events, so take the log with SnapshotWithEvents; a
// Snapshot log renders the source tracks alone.
func (l *Log) WriteChromeTrace(w io.Writer) error {
	t := chromeTrace{DisplayTimeUnit: "ms", OtherData: map[string]any{
		"recorder":    l.Name,
		"events_lost": l.EventsLost,
	}}
	// pid 0 reads as "no process" in viewers; number sources from 1.
	for i, src := range l.Sources {
		t.TraceEvents = append(t.TraceEvents,
			chromeEvent{Name: "process_name", Ph: "M", Pid: i + 1,
				Args: map[string]any{"name": src.Name}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: i + 1, Tid: 0,
				Args: map[string]any{"name": "chip"}})
	}
	namedCores := map[[2]int32]bool{}
	for _, ev := range l.Events {
		pid := int(ev.Source) + 1
		tid := 0
		if ev.Core >= 0 {
			tid = int(ev.Core) + 1
			key := [2]int32{ev.Source, ev.Core}
			if !namedCores[key] {
				namedCores[key] = true
				t.TraceEvents = append(t.TraceEvents, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"name": "core " + strconv.Itoa(int(ev.Core))}})
			}
		}
		ts := float64(ev.TimeUS)
		switch ev.Kind {
		case KindDroop:
			t.TraceEvents = append(t.TraceEvents, chromeEvent{
				Name: "di/dt droop", Ph: "i", Ts: ts, Pid: pid, Tid: tid, S: "p",
				Args: map[string]any{"worst_mv": ev.A, "typical_mv": ev.B, "events": ev.C}})
		case KindWindow:
			t.TraceEvents = append(t.TraceEvents, chromeEvent{
				Name: "min CPM", Ph: "C", Ts: ts, Pid: pid,
				Args: map[string]any{"sample": ev.A, "sticky": ev.B}})
		case KindThrottle:
			t.TraceEvents = append(t.TraceEvents, chromeEvent{
				Name: "issue throttle", Ph: "i", Ts: ts, Pid: pid, Tid: tid, S: "t",
				Args: map[string]any{"frac": ev.A, "was": ev.B}})
		case KindDVFS:
			if ev.C < 0 {
				t.TraceEvents = append(t.TraceEvents, chromeEvent{
					Name: "set point (mV)", Ph: "C", Ts: ts, Pid: pid,
					Args: map[string]any{"mv": ev.A}})
			} else {
				t.TraceEvents = append(t.TraceEvents, chromeEvent{
					Name: "mode change", Ph: "i", Ts: ts, Pid: pid, Tid: tid, S: "p",
					Args: map[string]any{"mode": ev.C, "mv": ev.A, "mhz": ev.B}})
			}
		case KindLeap:
			dur := ev.A * 1e6
			t.TraceEvents = append(t.TraceEvents, chromeEvent{
				Name: "macro-leap", Ph: "X", Ts: ts - dur, Dur: dur, Pid: pid, Tid: tid,
				Args: map[string]any{"reason": Reason(ev.C).String(), "sec": ev.A}})
		case KindThreadDone:
			t.TraceEvents = append(t.TraceEvents, chromeEvent{
				Name: "thread done", Ph: "i", Ts: ts, Pid: pid, Tid: tid, S: "t"})
		case KindAttrib:
			t.TraceEvents = append(t.TraceEvents, chromeEvent{
				Name: "margin (bits)", Ph: "C", Ts: ts, Pid: pid,
				Args: map[string]any{"bits": ev.A}})
		case KindHealth:
			t.TraceEvents = append(t.TraceEvents, chromeEvent{
				Name: "health: " + HealthDetectorName(ev.C), Ph: "i", Ts: ts, Pid: pid, Tid: tid, S: "g",
				Args: map[string]any{"value": ev.A, "threshold": ev.B}})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}
