// Package obs is the simulator's flight recorder: the structured
// observability layer the paper's methodology (§4.1) implies but the
// simulator lacked. Every layer — didt noise, CPM windows, chip stepping,
// DPLL droop reactions, the server scheduler, the cluster — emits into a
// Recorder through a nil-safe handle threaded down the Config structs, so
// running without one costs a single pointer test per call site.
//
// A Recorder has three faces:
//
//   - a zero-allocation metrics registry: fixed-ID counters and gauges per
//     registered source plus fixed-bucket histograms, all stored in arrays
//     preallocated at construction so the 1 ms step loop never allocates;
//   - a structured event log: a preallocated ring of typed records (droop
//     fired, CPM window read, throttle moved, DVFS/AGS decision,
//     macro-leap with horizon reason, thread completion), enabled by a
//     non-zero event capacity;
//   - exporters (chrome.go, prom.go, manifest.go, summary.go) that render
//     a merged Snapshot as a Chrome trace_event file, Prometheus text
//     exposition, a run manifest, or terminal tables and timelines.
//
// Determinism contract: parallel sweeps must NOT share one recorder
// between concurrently stepping units. Instead each deterministic work
// unit (a sweep point, a cluster node) takes its own child shard via
// Shard(name); Snapshot merges shards by sorted shard name and stable
// event-time order, so the merged view is bit-identical at any worker
// count and independent of goroutine scheduling. Shard and Source are
// mutex-protected (workers create shards concurrently); the per-shard hot
// paths (Inc, Add, SetGauge, Observe, Emit) are deliberately unlocked and
// rely on the one-goroutine-per-shard ownership the sweep engine already
// guarantees for the chips themselves.
package obs

import (
	"fmt"
	"sort"
	"sync"

	"agsim/internal/tsdb"
)

// DefaultEventCap is the per-shard event-ring capacity commands enable
// when the user asks for event recording without picking a size.
const DefaultEventCap = 8192

// Recorder accumulates metrics and events for one deterministic unit of
// work, plus any child shards created under it. The zero value is not
// usable; construct with New. A nil *Recorder is valid everywhere and
// records nothing.
type Recorder struct {
	name     string
	eventCap int

	// Registration state, mutex-guarded: sweep workers create shards and
	// sources concurrently during setup.
	mu       sync.Mutex
	sources  []string
	srcIndex map[string]int32
	children []*Recorder

	// Metric state, one row per source, preallocated at registration so
	// the step-loop writers never allocate.
	counters [][NumCounters]uint64
	gauges   [][NumGauges]float64
	hists    [NumHists]histogram

	// Event ring: len grows to eventCap once, then wraps. lost counts
	// overwritten (oldest-first) records.
	events []Event
	next   int
	lost   uint64

	// Time-series state: tsSpec is inherited by shards like eventCap;
	// series are registered at construction time (mutex-guarded, like
	// Source) and written lock-free by the shard's owning goroutine.
	tsOn    bool
	tsSpec  tsdb.Spec
	series  []seriesEntry
	tsIndex map[seriesKey]*tsdb.Series
}

// seriesKey identifies a series by emitting source and metric name.
type seriesKey struct {
	src  int32
	name string
}

type seriesEntry struct {
	key seriesKey
	ts  *tsdb.Series
}

type histogram struct {
	counts []uint64 // len(buckets)+1; last bin is +Inf
	sum    float64
	n      uint64
}

// New creates a recorder. eventCap sizes the structured event ring of
// this recorder and every shard created under it; 0 disables event
// recording (metrics stay on).
func New(name string, eventCap int) *Recorder {
	if eventCap < 0 {
		eventCap = 0
	}
	r := &Recorder{name: name, eventCap: eventCap, srcIndex: map[string]int32{}}
	for i := range r.hists {
		r.hists[i].counts = make([]uint64, len(histMeta[i].buckets)+1)
	}
	if eventCap > 0 {
		r.events = make([]Event, 0, eventCap)
	}
	return r
}

// Name returns the recorder's name ("" on nil).
func (r *Recorder) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Shard creates a child recorder for one deterministic work unit. Two
// distinct work units must never share a shard name — their emissions
// would race and the merged log would depend on scheduling — so a name
// collision panics instead of silently sharing; callers derive shard
// names from the same unique tags that seed the unit's RNG streams.
// Nil-safe: nil.Shard returns nil.
func (r *Recorder) Shard(name string) *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.children {
		if c.name == name {
			panic(fmt.Sprintf("obs: duplicate shard %q under %q (work-unit tags must be unique)", name, r.name))
		}
	}
	child := New(name, r.eventCap)
	child.tsOn, child.tsSpec = r.tsOn, r.tsSpec
	r.children = append(r.children, child)
	return child
}

// EnableTimeSeries turns on tsdb series registration for this recorder
// and every shard created under it afterwards (enable before sharding,
// exactly like the event capacity). Nil-safe.
func (r *Recorder) EnableTimeSeries(spec tsdb.Spec) {
	if r == nil {
		return
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	r.mu.Lock()
	r.tsOn, r.tsSpec = true, spec
	r.mu.Unlock()
}

// Series registers (idempotently) a time-series for the given source and
// metric name and returns its handle. Returns nil — a valid, inert
// series — on a nil recorder, a negative source, or when time-series
// recording is not enabled, so call sites push unconditionally.
// Mutex-guarded like Source: registration happens at construction time,
// never in the step loop.
func (r *Recorder) Series(src int32, name string) *tsdb.Series {
	if r == nil || src < 0 || !r.tsOn {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tsIndex == nil {
		r.tsIndex = map[seriesKey]*tsdb.Series{}
	}
	key := seriesKey{src: src, name: name}
	if ts, ok := r.tsIndex[key]; ok {
		return ts
	}
	ts := tsdb.NewSeries(name, r.tsSpec)
	r.tsIndex[key] = ts
	r.series = append(r.series, seriesEntry{key: key, ts: ts})
	return ts
}

// Source registers a named emitter (a chip, typically) and returns its
// index for the per-source counter and gauge rows. Registering the same
// name again returns the existing index — a cluster node re-registers its
// chips on every power cycle and keeps accumulating into the same rows.
// Nil-safe: returns -1 on a nil recorder (the index is only ever handed
// back to the same recorder, where every method tolerates it).
func (r *Recorder) Source(name string) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx, ok := r.srcIndex[name]; ok {
		return idx
	}
	idx := int32(len(r.sources))
	r.srcIndex[name] = idx
	r.sources = append(r.sources, name)
	r.counters = append(r.counters, [NumCounters]uint64{})
	r.gauges = append(r.gauges, [NumGauges]float64{})
	return idx
}

// Inc adds one to a source's counter. Nil-safe, allocation-free.
func (r *Recorder) Inc(src int32, c CounterID) {
	if r == nil || src < 0 {
		return
	}
	r.counters[src][c]++
}

// Add adds n to a source's counter. Nil-safe, allocation-free.
func (r *Recorder) Add(src int32, c CounterID, n uint64) {
	if r == nil || src < 0 {
		return
	}
	r.counters[src][c] += n
}

// SetGauge stores a source's gauge value. Nil-safe, allocation-free.
func (r *Recorder) SetGauge(src int32, g GaugeID, v float64) {
	if r == nil || src < 0 {
		return
	}
	r.gauges[src][g] = v
}

// Observe records a histogram sample. Nil-safe, allocation-free.
func (r *Recorder) Observe(h HistID, v float64) {
	if r == nil {
		return
	}
	hist := &r.hists[h]
	buckets := histMeta[h].buckets
	i := 0
	for i < len(buckets) && v > buckets[i] {
		i++
	}
	hist.counts[i]++
	hist.sum += v
	hist.n++
}

// Emit appends an event to the ring, overwriting the oldest record (and
// counting it as lost) once the ring is full. Nil-safe; a no-op when the
// recorder was built with eventCap 0. Allocation-free after construction.
func (r *Recorder) Emit(ev Event) {
	if r == nil || r.eventCap == 0 {
		return
	}
	if len(r.events) < r.eventCap {
		r.events = append(r.events, ev)
		return
	}
	r.events[r.next] = ev
	r.next++
	if r.next == r.eventCap {
		r.next = 0
	}
	r.lost++
}

// EventsEnabled reports whether this recorder records events.
func (r *Recorder) EventsEnabled() bool { return r != nil && r.eventCap > 0 }

// SourceMetrics is one emitter's merged metric rows in a Snapshot.
type SourceMetrics struct {
	Name     string
	Counters [NumCounters]uint64
	Gauges   [NumGauges]float64
}

// HistSnapshot is one merged histogram.
type HistSnapshot struct {
	Buckets []float64 // upper bounds, +Inf bin implied
	Counts  []uint64  // per-bin (not cumulative), len(Buckets)+1
	Sum     float64
	Count   uint64
}

// SeriesDump is one time-series' windows in a Snapshot: the source it
// was registered under (prefixed like SourceMetrics.Name), the metric
// name, and a copy of every level's live windows, oldest first.
type SeriesDump struct {
	Source string
	Name   string
	Spec   tsdb.Spec
	Levels [][]tsdb.Window
}

// ShardStats is one recorder shard's local (unmerged) bookkeeping — the
// signal that a wrapped event ring or a series-heavy shard would
// otherwise hide inside the merged totals.
type ShardStats struct {
	Name       string // prefixed shard path; "" is the root recorder
	EventsLost uint64
	Series     int
}

// Log is the merged, deterministic view of a recorder tree: sources in
// sorted shard-then-registration order, events in stable time order, and
// histograms summed across shards. Two runs of the same work produce
// DeepEqual Logs regardless of worker count.
type Log struct {
	Name       string
	Sources    []SourceMetrics
	Hists      [NumHists]HistSnapshot
	Events     []Event // Source re-indexed into Sources
	EventsLost uint64
	Series     []SeriesDump
	Shards     []ShardStats
}

// Snapshot merges the recorder and all its shards into a Log. It must not
// run concurrently with emission into any shard (finish or pause the
// simulation first); shard *creation* racing a snapshot is tolerated.
// Nil-safe: returns an empty Log.
func (r *Recorder) Snapshot() Log {
	var log Log
	for i := range log.Hists {
		log.Hists[i].Buckets = histMeta[i].buckets
		log.Hists[i].Counts = make([]uint64, len(histMeta[i].buckets)+1)
	}
	if r == nil {
		return log
	}
	log.Name = r.name
	shards := r.walk(nil, "")
	// Counting pass: size every merged slice once.
	var nSrc, nSeries int
	for _, sh := range shards {
		nSrc += len(sh.r.sources)
		nSeries += len(sh.r.series)
	}
	if nSrc > 0 {
		log.Sources = make([]SourceMetrics, 0, nSrc)
	}
	if nSeries > 0 {
		log.Series = make([]SeriesDump, 0, nSeries)
	}
	log.Shards = make([]ShardStats, 0, len(shards))
	var runs []eventRun
	for _, sh := range shards {
		runs = sh.r.collect(&log, sh.prefix, runs)
	}
	log.Events = mergeRuns(runs)
	return log
}

// shardRef is one recorder of a tree with its source-name prefix.
type shardRef struct {
	r      *Recorder
	prefix string
}

// walk lists the recorder and its descendants depth-first, children in
// name order — the order the merged Log presents them in.
func (r *Recorder) walk(list []shardRef, prefix string) []shardRef {
	r.mu.Lock()
	children := append([]*Recorder(nil), r.children...)
	r.mu.Unlock()
	sort.Slice(children, func(i, j int) bool { return children[i].name < children[j].name })
	list = append(list, shardRef{r: r, prefix: prefix})
	for _, c := range children {
		list = c.walk(list, prefix+c.name+"/")
	}
	return list
}

// collect folds one recorder's own rows into the log under the given
// source-name prefix and appends its events, as time-ordered runs, to runs.
func (r *Recorder) collect(log *Log, prefix string, runs []eventRun) []eventRun {
	base := int32(len(log.Sources))
	for i, name := range r.sources {
		log.Sources = append(log.Sources, SourceMetrics{
			Name:     prefix + name,
			Counters: r.counters[i],
			Gauges:   r.gauges[i],
		})
	}
	for i := range r.hists {
		for b, n := range r.hists[i].counts {
			log.Hists[i].Counts[b] += n
		}
		log.Hists[i].Sum += r.hists[i].sum
		log.Hists[i].Count += r.hists[i].n
	}
	log.EventsLost += r.lost
	log.Shards = append(log.Shards, ShardStats{
		Name:       trimSlash(prefix),
		EventsLost: r.lost,
		Series:     len(r.series),
	})
	// Series in registration order — per-source construction order, which
	// is deterministic because construction is (source registration order
	// x fixed metric order) within one single-threaded work unit.
	for _, se := range r.series {
		src := ""
		if se.key.src >= 0 && int(se.key.src) < len(r.sources) {
			src = r.sources[se.key.src]
		}
		dump := SeriesDump{
			Source: prefix + src,
			Name:   se.key.name,
			Spec:   se.ts.Spec(),
			Levels: make([][]tsdb.Window, se.ts.Levels()),
		}
		for li := range dump.Levels {
			dump.Levels[li] = se.ts.AppendWindows(nil, li)
		}
		log.Series = append(log.Series, dump)
	}
	// Ring in chronological order: the wrap point splits oldest from newest.
	if r.lost > 0 {
		runs = appendRuns(runs, r.events[r.next:], base)
		return appendRuns(runs, r.events[:r.next], base)
	}
	return appendRuns(runs, r.events, base)
}

// eventRun is a stretch of one ring whose TimeUS never decreases, with the
// offset that re-indexes its Source into the merged source list.
type eventRun struct {
	evs  []Event
	base int32
}

// appendRuns splits evs into maximal non-decreasing runs. A ring is
// normally one run; a ring whose stamps step back (a restored or reset
// shard) becomes several.
func appendRuns(runs []eventRun, evs []Event, base int32) []eventRun {
	start := 0
	for i := 1; i < len(evs); i++ {
		if evs[i].TimeUS < evs[i-1].TimeUS {
			runs = append(runs, eventRun{evs: evs[start:i], base: base})
			start = i
		}
	}
	if start < len(evs) {
		runs = append(runs, eventRun{evs: evs[start:], base: base})
	}
	return runs
}

// mergeRuns merges the runs into one slice ordered by TimeUS, ties going
// to the earlier run. Within a run order is kept, so the result is what a
// stable sort by TimeUS of the runs' concatenation gives. A tree of losers
// over the run heads picks each next event in log2(len(runs)) compares.
func mergeRuns(runs []eventRun) []Event {
	n := 0
	for _, rn := range runs {
		n += len(rn.evs)
	}
	if n == 0 {
		return nil
	}
	k := len(runs)
	heads := make([]runHead, k)
	for i, rn := range runs {
		heads[i].t = rn.evs[0].TimeUS // appendRuns makes no empty runs
	}
	before := func(a, b int) bool {
		ha, hb := heads[a], heads[b]
		if ha.done || hb.done {
			return !ha.done
		}
		return ha.t < hb.t || ha.t == hb.t && a < b
	}
	// Run i is leaf k+i; node p > 0 holds the loser of the match between
	// its children 2p and 2p+1, and the overall winner is kept apart.
	tree := make([]int, 2*k)
	for i := 0; i < k; i++ {
		tree[k+i] = i
	}
	win := make([]int, k)
	for p := k - 1; p >= 1; p-- {
		a, b := tree[2*p], tree[2*p+1]
		if 2*p < k {
			a = win[2*p]
		}
		if 2*p+1 < k {
			b = win[2*p+1]
		}
		if before(b, a) {
			a, b = b, a
		}
		win[p], tree[p] = a, b
	}
	w := 0
	if k > 1 {
		w = win[1]
	}
	out := make([]Event, n)
	for j := range out {
		rn := &runs[w]
		ev := rn.evs[0]
		if ev.Source >= 0 {
			ev.Source += rn.base // re-index into the merged source list
		}
		out[j] = ev
		if rn.evs = rn.evs[1:]; len(rn.evs) > 0 {
			heads[w].t = rn.evs[0].TimeUS
		} else {
			heads[w].done = true
		}
		for p := (k + w) / 2; p >= 1; p /= 2 {
			if before(tree[p], w) {
				tree[p], w = w, tree[p]
			}
		}
	}
	return out
}

// runHead is the merge key of a run: its next event's TimeUS, or done
// once the run is spent.
type runHead struct {
	t    int64
	done bool
}

// trimSlash drops the trailing separator a shard prefix carries.
func trimSlash(p string) string {
	if n := len(p); n > 0 && p[n-1] == '/' {
		return p[:n-1]
	}
	return p
}

// TotalCounter sums a counter across every source of the log.
func (l *Log) TotalCounter(c CounterID) uint64 {
	var total uint64
	for i := range l.Sources {
		total += l.Sources[i].Counters[c]
	}
	return total
}

// MergedSeries folds every dump of the named metric across sources —
// merge-on-read, in the log's deterministic dump order — into one
// windows-per-level view. Returns ok=false when no source recorded it.
func (l *Log) MergedSeries(name string) (spec tsdb.Spec, levels [][]tsdb.Window, ok bool) {
	for i := range l.Series {
		d := &l.Series[i]
		if d.Name != name {
			continue
		}
		if !ok {
			ok = true
			spec = d.Spec
			levels = make([][]tsdb.Window, len(d.Levels))
		}
		for li := range d.Levels {
			if li < len(levels) {
				levels[li] = tsdb.MergeWindows(levels[li], d.Levels[li])
			}
		}
	}
	return spec, levels, ok
}
