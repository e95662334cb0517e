package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// benchLayer is the layer name of the benchmark's own code: root spans
// carry it, so its self time is the time no layer span covers — the
// unattributed residual of a traced pass.
const benchLayer = "agbench"

// span is one timed call from the benchmark into a layer's public API:
// its name, layer, start and end since the tracer's origin, the op it
// belongs to, and the span (in the same lane) that caused it.
type span struct {
	Name   string
	Layer  string
	Op     int
	Parent int // index into the lane's spans, -1 for a root
	Start  time.Duration
	End    time.Duration
}

// tracer keeps every span in memory until the run ends. Each goroutine
// records into its own lane, so recording takes no lock.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	lanes  []*lane
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// lane is one goroutine's span stack. A nil lane records nothing, which
// is how untraced runs call the same code.
type lane struct {
	tr    *tracer
	id    int
	op    int
	spans []span
	stack []int
}

// newLane opens a lane for one goroutine; nil on a nil tracer.
func (t *tracer) newLane() *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{tr: t, id: len(t.lanes)}
	t.lanes = append(t.lanes, l)
	return l
}

// setOp tags the spans that follow with an op id.
func (l *lane) setOp(op int) {
	if l != nil {
		l.op = op
	}
}

// begin opens a span under the innermost open one and returns its handle.
func (l *lane) begin(layer, name string) int {
	if l == nil {
		return -1
	}
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Layer: layer, Op: l.op, Parent: parent, Start: time.Since(l.tr.origin)})
	i := len(l.spans) - 1
	l.stack = append(l.stack, i)
	return i
}

// end closes the span begin returned; spans close innermost first.
func (l *lane) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].End = time.Since(l.tr.origin)
	l.stack = l.stack[:len(l.stack)-1]
}

// layerRow is one layer's share of a traced pass.
type layerRow struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Calls  int     `json:"calls"`
	Share  float64 `json:"share"`
}

// layerTable attributes the lanes' time to layers. A span's self time is
// its duration minus the part its children cover, so the self times of a
// lane's spans add up to its root spans exactly; the roots' own self time
// is reported as the agbench (residual) row. Share is over the summed
// root time of all lanes, which is the pass's wall time when one lane
// records and lanes x wall when several workers do.
func (t *tracer) layerTable() (rows []layerRow, laneMS float64) {
	self := map[string]*layerRow{}
	for _, l := range t.lanes {
		child := make([]time.Duration, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range l.spans {
			d := s.End - s.Start
			if s.Parent < 0 {
				laneMS += ms(d)
			}
			r := self[s.Layer]
			if r == nil {
				r = &layerRow{Layer: s.Layer}
				self[s.Layer] = r
			}
			r.SelfMS += ms(d - child[i])
			r.Calls++
		}
	}
	for _, r := range self {
		if laneMS > 0 {
			r.Share = r.SelfMS / laneMS
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return rows, laneMS
}

// spanDurations returns the durations, in ms, of every span with the
// given name across all lanes.
func (t *tracer) spanDurations(name string) []float64 {
	var out []float64
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if s.Name == name {
				out = append(out, ms(s.End-s.Start))
			}
		}
	}
	return out
}

// chromeEvent is one Chrome trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chrome renders the spans as complete ("X") events of one process.
func (t *tracer) chrome(pid int, process string) []chromeEvent {
	evs := []chromeEvent{{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": process}}}
	for _, l := range t.lanes {
		for _, s := range l.spans {
			args := map[string]any{"op": s.Op}
			if s.Parent >= 0 {
				args["parent"] = l.spans[s.Parent].Name
			}
			evs = append(evs, chromeEvent{
				Name: s.Name, Cat: s.Layer, Ph: "X", PID: pid, TID: l.id,
				TS: us(s.Start), Dur: us(s.End - s.Start), Args: args,
			})
		}
	}
	return evs
}

// writeChromeTo writes the merged events as trace_event JSON.
func writeChromeTo(w io.Writer, evs []chromeEvent) error {
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
