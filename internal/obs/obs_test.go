package obs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Shard("x") != nil {
		t.Error("nil.Shard should return nil")
	}
	src := r.Source("chip")
	if src != -1 {
		t.Errorf("nil.Source = %d, want -1", src)
	}
	r.Inc(src, CMicroSteps)
	r.Add(src, CDidtEvents, 3)
	r.SetGauge(src, GPowerW, 100)
	r.Observe(HLeapSec, 0.01)
	r.Emit(Event{Kind: KindDroop})
	if r.EventsEnabled() {
		t.Error("nil recorder should not record events")
	}
	if r.Name() != "" {
		t.Error("nil.Name should be empty")
	}
	lg := r.Snapshot()
	if len(lg.Sources) != 0 || len(lg.Events) != 0 {
		t.Errorf("nil snapshot not empty: %+v", lg)
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := New("test", 0)
	a := r.Source("a")
	b := r.Source("b")
	if a == b {
		t.Fatal("distinct sources share an index")
	}
	if again := r.Source("a"); again != a {
		t.Errorf("re-registering a source returned %d, want %d", again, a)
	}
	r.Inc(a, CMicroSteps)
	r.Inc(a, CMicroSteps)
	r.Add(b, CMicroSteps, 5)
	r.SetGauge(a, GPowerW, 93.5)
	r.Observe(HLeapSec, 0.004) // second bucket (0.002, 0.004]
	r.Observe(HLeapSec, 1e9)   // +Inf bin
	lg := r.Snapshot()
	if got := lg.TotalCounter(CMicroSteps); got != 7 {
		t.Errorf("TotalCounter = %d, want 7", got)
	}
	if lg.Sources[0].Name != "a" || lg.Sources[0].Counters[CMicroSteps] != 2 {
		t.Errorf("source a row wrong: %+v", lg.Sources[0])
	}
	if lg.Sources[0].Gauges[GPowerW] != 93.5 {
		t.Errorf("gauge = %v", lg.Sources[0].Gauges[GPowerW])
	}
	h := lg.Hists[HLeapSec]
	if h.Count != 2 || h.Counts[1] != 1 || h.Counts[len(h.Counts)-1] != 1 {
		t.Errorf("histogram wrong: %+v", h)
	}
	if h.Sum != 0.004+1e9 {
		t.Errorf("histogram sum = %v", h.Sum)
	}
	// An event emitted into an eventCap-0 recorder is dropped silently.
	r.Emit(Event{Kind: KindDroop})
	if got := len(r.Snapshot().Events); got != 0 {
		t.Errorf("eventCap 0 recorded %d events", got)
	}
}

func TestEventRingWrap(t *testing.T) {
	r := New("ring", 4)
	src := r.Source("s")
	for i := 0; i < 7; i++ {
		r.Emit(Event{TimeUS: int64(i), Kind: KindDroop, Source: src})
	}
	lg := r.Snapshot()
	if lg.EventsLost != 3 {
		t.Errorf("EventsLost = %d, want 3", lg.EventsLost)
	}
	if len(lg.Events) != 4 {
		t.Fatalf("kept %d events, want 4", len(lg.Events))
	}
	// The oldest three were overwritten; the survivors are 3..6 in order.
	for i, ev := range lg.Events {
		if ev.TimeUS != int64(3+i) {
			t.Errorf("event %d TimeUS = %d, want %d", i, ev.TimeUS, 3+i)
		}
	}
}

func TestShardMergeIsDeterministic(t *testing.T) {
	build := func(order []string) Log {
		r := New("root", 16)
		for _, name := range order {
			sh := r.Shard(name)
			src := sh.Source("chip")
			// Emissions derived from the shard name, so both builds do
			// identical work regardless of creation order.
			for i := 0; i < len(name); i++ {
				sh.Inc(src, CMicroSteps)
			}
			sh.Emit(Event{TimeUS: int64(len(name)), Kind: KindLeap, Source: src})
			sh.Observe(HLeapSec, float64(len(name))*0.001)
		}
		return r.Snapshot()
	}
	fwd := build([]string{"alpha", "bee", "cc"})
	rev := build([]string{"cc", "bee", "alpha"})
	if !reflect.DeepEqual(fwd, rev) {
		t.Errorf("snapshots differ by shard creation order:\n%+v\n%+v", fwd, rev)
	}
	if fwd.Sources[0].Name != "alpha/chip" {
		t.Errorf("merged source name = %q, want alpha/chip", fwd.Sources[0].Name)
	}
	// Event Source indices must point into the merged source list.
	for _, ev := range fwd.Events {
		if ev.Source < 0 || int(ev.Source) >= len(fwd.Sources) {
			t.Errorf("event source %d outside merged sources", ev.Source)
		}
	}
}

// stableSortedEvents is the reference merge: every ring unwrapped in tree
// order with sources re-indexed, then one stable sort by TimeUS.
func stableSortedEvents(root *Recorder) []Event {
	var evs []Event
	var nsrc int32
	var visit func(r *Recorder)
	visit = func(r *Recorder) {
		base := nsrc
		nsrc += int32(len(r.sources))
		ring := r.events
		if r.lost > 0 {
			ring = append(append([]Event(nil), r.events[r.next:]...), r.events[:r.next]...)
		}
		for _, ev := range ring {
			if ev.Source >= 0 {
				ev.Source += base
			}
			evs = append(evs, ev)
		}
		children := append([]*Recorder(nil), r.children...)
		sort.Slice(children, func(i, j int) bool { return children[i].name < children[j].name })
		for _, c := range children {
			visit(c)
		}
	}
	visit(root)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TimeUS < evs[j].TimeUS })
	return evs
}

// TestSnapshotMergeMatchesStableSort builds random shard trees — rings
// that wrap up to three times, rings whose stamps step back, stamps drawn
// from a narrow range so shards tie — and requires the run merge to order
// events exactly as a stable sort of the concatenated rings does.
func TestSnapshotMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20151205))
	for trial := 0; trial < 300; trial++ {
		ringCap := 1 + rng.Intn(12)
		root := New("root", ringCap)
		recs := []*Recorder{root}
		names := rng.Perm(100) // unique shard names, created out of name order
		for n := rng.Intn(14); len(recs) <= n; {
			parent := recs[rng.Intn(len(recs))]
			recs = append(recs, parent.Shard(fmt.Sprintf("s%02d", names[len(recs)])))
		}
		for ri, r := range recs {
			nsrc := rng.Intn(4)
			for s := 0; s < nsrc; s++ {
				r.Source(fmt.Sprintf("src%d", s))
			}
			stepsBack := rng.Intn(4) == 0
			tUS := int64(rng.Intn(5))
			for i, n := 0, rng.Intn(3*ringCap+1); i < n; i++ {
				if stepsBack && rng.Intn(4) == 0 {
					tUS -= int64(1 + rng.Intn(6))
				} else {
					tUS += int64(rng.Intn(3)) // 0: a tie inside the ring
				}
				r.Emit(Event{
					TimeUS: tUS, Kind: KindDroop,
					Source: int32(rng.Intn(nsrc+1)) - 1,
					Core:   int32(i), A: float64(ri), C: int64(trial),
				})
			}
		}
		got := root.Snapshot().Events
		if want := stableSortedEvents(root); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d shards, ring %d): merged events differ from the stable sort\ngot  %v\nwant %v",
				trial, len(recs), ringCap, got, want)
		}
	}
}

func TestDuplicateShardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate shard name")
		}
	}()
	r := New("root", 0)
	r.Shard("x")
	r.Shard("x")
}

func TestEmissionsDoNotAllocate(t *testing.T) {
	r := New("alloc", 8)
	src := r.Source("s")
	// Fill the ring first so Emit is in steady (wrapping) state.
	for i := 0; i < 8; i++ {
		r.Emit(Event{TimeUS: int64(i)})
	}
	got := testing.AllocsPerRun(1000, func() {
		r.Inc(src, CMicroSteps)
		r.Add(src, CDidtEvents, 2)
		r.SetGauge(src, GPowerW, 50)
		r.Observe(HLeapSec, 0.008)
		r.Emit(Event{TimeUS: 99, Kind: KindDroop, Source: src})
	})
	if got != 0 {
		t.Errorf("hot path allocates %v allocs/op, want 0", got)
	}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	r := New("trace", 32)
	src := r.Source("P0")
	r.Emit(Event{TimeUS: 1000, Kind: KindDroop, Source: src, Core: -1, A: -31, B: -12, C: 2})
	r.Emit(Event{TimeUS: 2000, Kind: KindWindow, Source: src, Core: -1, A: 4, B: 3})
	r.Emit(Event{TimeUS: 3000, Kind: KindThrottle, Source: src, Core: 2, A: 0.5, B: 0})
	r.Emit(Event{TimeUS: 4000, Kind: KindDVFS, Source: src, Core: -1, A: 1150, B: 1199, C: -1})
	r.Emit(Event{TimeUS: 36000, Kind: KindLeap, Source: src, Core: -1, A: 0.032, C: int64(ReasonTick)})
	r.Emit(Event{TimeUS: 40000, Kind: KindThreadDone, Source: src, Core: 5})
	r.Emit(Event{TimeUS: 64000, Kind: KindAttrib, Source: src, Core: -1, A: 2, B: 1150, C: 1 << 5})
	r.Emit(Event{TimeUS: 70000, Kind: KindHealth, Source: src, Core: -1, A: 80, B: 50,
		C: PackHealth(DetDroopStorm, HealthWarn)})
	lg := r.Snapshot()
	var sb strings.Builder
	if err := lg.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var leaps, metas, margins, healths int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Name == "margin (bits)":
			margins++
			if ev.Ph != "C" || ev.Args["bits"] != 2.0 {
				t.Errorf("attribution counter sample malformed: %+v", ev)
			}
		case ev.Name == "health: droop-storm":
			healths++
			if ev.Ph != "i" || ev.Args["value"] != 80.0 || ev.Args["threshold"] != 50.0 {
				t.Errorf("health instant malformed: %+v", ev)
			}
		case ev.Ph == "M":
			metas++
		case ev.Ph == "X":
			leaps++
			if ev.Dur != 32000 {
				t.Errorf("leap dur = %v µs, want 32000", ev.Dur)
			}
			// A complete slice starts at leap end minus duration.
			if ev.TS != 36000-32000 {
				t.Errorf("leap ts = %v, want 4000", ev.TS)
			}
		}
		if ev.Ph == "" || ev.PID < 1 {
			t.Errorf("malformed event: %+v", ev)
		}
	}
	if leaps != 1 || metas == 0 {
		t.Errorf("leaps = %d, metadata events = %d", leaps, metas)
	}
	if margins != 1 || healths != 1 {
		t.Errorf("margins = %d, health instants = %d, want 1 each", margins, healths)
	}
}

func TestWritePromExposition(t *testing.T) {
	r := New("prom", 4)
	src := r.Source(`weird"name\n`)
	r.Inc(src, CFirmwareTicks)
	r.SetGauge(src, GTempC, 61.5)
	r.Observe(HDroopDepthMV, 20)
	lg := r.Snapshot()
	var sb strings.Builder
	if err := lg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE agsim_firmware_ticks_total counter",
		"agsim_firmware_ticks_total{source=\"weird\\\"name\\\\n\"} 1",
		"# TYPE agsim_temp_celsius gauge",
		"agsim_droop_depth_mv_bucket{le=\"+Inf\"}",
		"agsim_droop_depth_mv_sum 20",
		"agsim_droop_depth_mv_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and end at the total count.
	var last uint64
	for _, ln := range strings.Split(out, "\n") {
		if !strings.HasPrefix(ln, "agsim_droop_depth_mv_bucket") {
			continue
		}
		v, err := strconv.ParseUint(ln[strings.LastIndexByte(ln, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparsable bucket line %q: %v", ln, err)
		}
		if v < last {
			t.Errorf("bucket counts not cumulative at %q", ln)
		}
		last = v
	}
	if last != 1 {
		t.Errorf("final bucket = %d, want 1", last)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest("test-run", 42)
	m.Config = map[string]any{"workload": "raytrace"}
	m.SimSeconds = 3.5
	var sb strings.Builder
	if err := m.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back["name"] != "test-run" || back["seed"] != float64(42) {
		t.Errorf("manifest fields wrong: %v", back)
	}
	if back["sim_seconds"] != 3.5 {
		t.Errorf("sim_seconds = %v", back["sim_seconds"])
	}
	if _, ok := back["config"].(map[string]any); !ok {
		t.Errorf("config missing: %v", back)
	}
}

func TestSummaryTableAndTimeline(t *testing.T) {
	r := New("sum", 16)
	src := r.Source("P0")
	r.Inc(src, CMicroSteps)
	r.Observe(HLeapSec, 0.016)
	r.Emit(Event{TimeUS: 1000, Kind: KindDroop, Source: src, A: -25})
	r.Emit(Event{TimeUS: 2000, Kind: KindLeap, Source: src, A: 0.001})
	lg := r.Snapshot()
	tab := lg.SummaryTable()
	row, ok := tab.Row("micro_steps")
	if !ok || row.Values[0] != 1 {
		t.Errorf("summary row micro_steps = %+v ok=%v", row, ok)
	}
	if _, ok := tab.Row("events_recorded"); !ok {
		t.Error("summary missing events_recorded")
	}
	if row, ok := tab.Row("micro_steps_per_tick"); ok {
		t.Errorf("summary has micro_steps_per_tick %+v without a firmware tick", row)
	}
	r.Inc(src, CMicroSteps)
	r.Inc(src, CMicroSteps)
	r.Add(src, CFirmwareTicks, 2)
	lg = r.Snapshot()
	row, ok = lg.SummaryTable().Row("micro_steps_per_tick")
	if !ok || row.Values[0] != 1.5 {
		t.Errorf("summary row micro_steps_per_tick = %+v ok=%v, want 3 steps / 2 ticks = 1.5", row, ok)
	}
	fig := lg.TimelineFigure()
	if fig == nil {
		t.Fatal("nil timeline figure")
	}
	if _, _, _, _, pts := fig.Bounds(); pts != 2 {
		t.Errorf("timeline points = %d, want 2", pts)
	}
}

func TestStampUSIsGridExact(t *testing.T) {
	// Accumulating 1 ms steps in floating point and jumping there in one
	// macro leap differ by ulps; the µs stamp must agree regardless.
	micro := 0.0
	for i := 0; i < 997; i++ {
		micro += 0.001
	}
	macro := 0.997
	if micro == macro {
		t.Skip("float accumulation happened to be exact; stamp equality is trivial")
	}
	if StampUS(micro) != StampUS(macro) {
		t.Errorf("StampUS diverges: %d vs %d", StampUS(micro), StampUS(macro))
	}
}
