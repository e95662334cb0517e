package traffic

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"agsim/internal/obs"
	"agsim/internal/parallel"
)

func flatCaps(nodes int, gips float64) []float64 {
	caps := make([]float64, nodes)
	for i := range caps {
		caps[i] = gips
	}
	return caps
}

// The realized arrival rate should track the configured base rate when the
// envelopes are off.
func TestArrivalRateMatchesConfig(t *testing.T) {
	cfg := DefaultConfig(4, 7)
	cfg.DiurnalAmplitude = 0
	cfg.BurstRatePerSec = 0
	g := New(cfg)
	const dur = 50.0
	for i := 0; i < 10; i++ {
		g.Epoch(nil, dur/10, flatCaps(cfg.Nodes, 100))
	}
	s := g.Latency()
	total := float64(s.Completed + s.Dropped)
	want := cfg.RatePerSec * dur * float64(cfg.Nodes)
	if math.Abs(total-want) > 0.05*want {
		t.Fatalf("realized %v arrivals, want ~%v", total, want)
	}
	if s.Dropped != 0 {
		t.Fatalf("unexpected drops at light load: %d", s.Dropped)
	}
}

// Latencies must be at least the service time and the percentiles ordered.
func TestLatencyOrdering(t *testing.T) {
	g := New(DefaultConfig(2, 11))
	g.Epoch(nil, 20, flatCaps(2, 80))
	s := g.Latency()
	if s.Completed == 0 {
		t.Fatal("no requests served")
	}
	minService := 0.0 // exponential demands can be arbitrarily small
	if s.MeanSec <= minService {
		t.Fatalf("mean latency %v not positive", s.MeanSec)
	}
	if !(s.P50Sec <= s.P95Sec && s.P95Sec <= s.P99Sec && s.P99Sec <= s.MaxSec) {
		t.Fatalf("percentiles out of order: p50=%v p95=%v p99=%v max=%v",
			s.P50Sec, s.P95Sec, s.P99Sec, s.MaxSec)
	}
}

// Chopping the same wall of simulated time into different epoch patterns
// must consume the identical draw sequence: every node snapshot DeepEqual.
func TestEpochChoppingInvariance(t *testing.T) {
	const total = 12.0
	chops := [][]float64{
		{total},
		{0.001, 0.999, 3.0, 8.0},
		{6.0, 6.0},
	}
	fine := make([]float64, 1200)
	for i := range fine {
		fine[i] = 0.01
	}
	chops = append(chops, fine)

	var ref []NodeSnapshot
	for ci, chop := range chops {
		cfg := DefaultConfig(6, 99)
		g := New(cfg)
		caps := flatCaps(cfg.Nodes, 64)
		for _, dt := range chop {
			g.Epoch(nil, dt, caps)
		}
		snaps := make([]NodeSnapshot, cfg.Nodes)
		for i := range snaps {
			snaps[i] = g.NodeSnapshot(i)
		}
		if ci == 0 {
			ref = snaps
			continue
		}
		if !reflect.DeepEqual(snaps, ref) {
			t.Fatalf("chop %d diverged from single-epoch reference", ci)
		}
	}
}

// Worker-count invariance: the per-node streams are owned by the node, so
// fanning epochs out over any pool width is bit-identical to serial.
func TestWorkerCountInvariance(t *testing.T) {
	run := func(workers int) ([]NodeSnapshot, Summary) {
		cfg := DefaultConfig(16, 5)
		g := New(cfg)
		var pool *parallel.Pool
		if workers > 1 {
			pool = parallel.NewPool(workers)
		}
		caps := flatCaps(cfg.Nodes, 72)
		for i := 0; i < 8; i++ {
			g.Epoch(pool, 1.5, caps)
		}
		snaps := make([]NodeSnapshot, cfg.Nodes)
		for i := range snaps {
			snaps[i] = g.NodeSnapshot(i)
		}
		return snaps, g.Latency()
	}
	refSnaps, refSum := run(1)
	for _, w := range []int{4, 8} {
		snaps, sum := run(w)
		if !reflect.DeepEqual(snaps, refSnaps) {
			t.Fatalf("workers=%d node snapshots diverged from serial", w)
		}
		if sum != refSum {
			t.Fatalf("workers=%d summary %+v != serial %+v", w, sum, refSum)
		}
	}
}

// Forced overload: with capacity far below the offered load the queue must
// saturate, shed requests, and account for every arrival exactly.
func TestForcedOverloadAccounting(t *testing.T) {
	cfg := DefaultConfig(3, 21)
	cfg.QueueCap = 16
	g := New(cfg)
	// 120 req/s of 0.4 GInst needs 48 GIPS; offer 5.
	for i := 0; i < 10; i++ {
		g.Epoch(nil, 2, flatCaps(cfg.Nodes, 5))
	}
	s := g.Latency()
	if s.Dropped == 0 {
		t.Fatal("overload produced no drops")
	}
	var seq, served, dropped uint64
	for i := 0; i < cfg.Nodes; i++ {
		ns := g.NodeSnapshot(i)
		seq += ns.Seq
		served += ns.Completed
		dropped += ns.Dropped
		if ns.Completed+ns.Dropped != ns.Seq {
			t.Fatalf("node %d: %d served + %d dropped != %d arrivals",
				i, ns.Completed, ns.Dropped, ns.Seq)
		}
		// Queue never exceeds cap even under sustained overload.
		if d := g.QueueDepth(i); d > cfg.QueueCap {
			t.Fatalf("node %d queue depth %d exceeds cap %d", i, d, cfg.QueueCap)
		}
	}
	if served != s.Completed || dropped != s.Dropped {
		t.Fatalf("summary (%d, %d) != per-node totals (%d, %d)",
			s.Completed, s.Dropped, served, dropped)
	}
	// Served counters are also mirrored into the recorder when attached.
	rec := obs.New("traffic-test", obs.DefaultEventCap)
	cfg2 := cfg
	cfg2.Recorder = rec
	g2 := New(cfg2)
	for i := 0; i < 10; i++ {
		g2.Epoch(nil, 2, flatCaps(cfg.Nodes, 5))
	}
	snap := rec.Snapshot()
	if got := snap.TotalCounter(obs.CRequestsServed); got != s.Completed {
		t.Fatalf("recorder served %d != %d", got, s.Completed)
	}
	if got := snap.TotalCounter(obs.CRequestsDropped); got != s.Dropped {
		t.Fatalf("recorder dropped %d != %d", got, s.Dropped)
	}
}

// Request IDs are deterministic functions of (node, seq).
func TestRequestIDs(t *testing.T) {
	var ids []uint64
	cfg := DefaultConfig(2, 3)
	cfg.Probe = func(node int, id uint64, _, _ float64, _ bool) {
		ids = append(ids, id)
	}
	g := New(cfg)
	g.Epoch(nil, 0.25, flatCaps(2, 100))
	if len(ids) == 0 {
		t.Fatal("probe saw no requests")
	}
	seen := map[uint64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate request id %#x", id)
		}
		seen[id] = true
	}
	if want := RequestID(1, 0); uint64(1)<<32 != want {
		t.Fatalf("RequestID(1,0) = %#x", want)
	}
}

// The satellite contract spelled out: every arrival timestamp, request id,
// and the merged latency histogram must be identical however simulated
// time is chopped — one wide macro-style epoch vs thousands of 1 ms
// exact-style epochs.
func TestArrivalStreamLaneIdentical(t *testing.T) {
	type event struct {
		id      uint64
		arrival float64
		lat     float64
		dropped bool
	}
	capture := func(chop []float64) (map[int][]event, Summary) {
		events := map[int][]event{}
		cfg := DefaultConfig(4, 31)
		cfg.Probe = func(node int, id uint64, arrivalSec, latencySec float64, dropped bool) {
			events[node] = append(events[node], event{id, arrivalSec, latencySec, dropped})
		}
		g := New(cfg)
		caps := flatCaps(cfg.Nodes, 64)
		for _, dt := range chop {
			g.Epoch(nil, dt, caps)
		}
		return events, g.Latency()
	}

	const total = 8.0
	wide, wideSum := capture([]float64{total})
	fine := make([]float64, 8000)
	for i := range fine {
		fine[i] = 0.001
	}
	fineEvents, fineSum := capture(fine)

	if !reflect.DeepEqual(wide, fineEvents) {
		t.Fatal("per-node (id, arrival, latency) sequences differ between macro- and exact-style chopping")
	}
	if wideSum != fineSum {
		t.Fatalf("latency summaries differ: %+v vs %+v", wideSum, fineSum)
	}
	if len(wide[0]) == 0 {
		t.Fatal("probe captured nothing")
	}
}

// Toggling burst episodes must not shift the base arrival stream's draws:
// bursts consume a separate named stream.
func TestBurstStreamIsolation(t *testing.T) {
	base := DefaultConfig(1, 77)
	base.DiurnalAmplitude = 0
	base.BurstRatePerSec = 0

	burst := base
	burst.BurstRatePerSec = 1.0 / 30
	burst.BurstMeanSec = 4
	burst.BurstFactor = 1.0 // episodes scheduled but rate unchanged

	gBase, gBurst := New(base), New(burst)
	caps := flatCaps(1, 100)
	gBase.Epoch(nil, 30, caps)
	gBurst.Epoch(nil, 30, caps)
	a, b := gBase.NodeSnapshot(0), gBurst.NodeSnapshot(0)
	if a.Seq != b.Seq || a.SumLatSec != b.SumLatSec {
		t.Fatalf("factor-1 burst schedule perturbed arrivals: %+v vs %+v", a, b)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{},
		{Nodes: 1},
		{Nodes: 1, RatePerSec: 1},
		{Nodes: 1, RatePerSec: 1, DemandGInst: 1, DiurnalAmplitude: 1},
		{Nodes: 1, RatePerSec: 1, DemandGInst: 1, DiurnalAmplitude: 0.5},
		{Nodes: 1, RatePerSec: 1, DemandGInst: 1, BurstRatePerSec: 0.1},
		{Nodes: 1, RatePerSec: 1, DemandGInst: 1, QueueCap: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if err := DefaultConfig(8, 1).Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// The epoch loop must be allocation-free in steady state (serial path).
func TestEpochZeroAlloc(t *testing.T) {
	cfg := DefaultConfig(8, 13)
	g := New(cfg)
	caps := flatCaps(cfg.Nodes, 80)
	g.Epoch(nil, 5, caps) // warm the burst schedules
	allocs := testing.AllocsPerRun(20, func() {
		g.Epoch(nil, 0.5, caps)
	})
	if allocs != 0 {
		t.Fatalf("Epoch allocates %v per call, want 0", allocs)
	}
}

// TestConservationRandom is the generator's accounting as a property over
// 60 seeded random configurations (node counts, rates, demands, diurnal
// swings, bursts, queue caps, per-epoch capacities from far below to far
// above the offered load, and random epoch choppings). For every node:
// each arrival is either admitted or shed (Completed + Dropped == Seq, and
// the probe sees each once); the run queue never holds more than QueueCap
// after an epoch; Latency() and the recorder's counters and latency
// histogram agree with the per-node totals; and admitted requests finish
// in arrival order (arrival + latency, read through the probe, never
// decreases), as a FIFO queue at one capacity must.
//
// The other half of conservation, sojourn >= demand/capacity, is not
// checked: the probe reports arrival and latency but not the demand.
func TestConservationRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 2015))
	for trial := 0; trial < 60; trial++ {
		cfg := DefaultConfig(1+r.IntN(5), r.Uint64())
		cfg.RatePerSec = 10 + 390*r.Float64()
		cfg.DemandGInst = 0.05 + r.Float64()
		cfg.DiurnalAmplitude = 0
		if r.IntN(2) == 0 {
			cfg.DiurnalAmplitude = 0.9 * r.Float64()
			cfg.DiurnalPeriodSec = 1 + 20*r.Float64()
		}
		cfg.BurstRatePerSec = 0
		if r.IntN(2) == 0 {
			cfg.BurstRatePerSec = 2 * r.Float64()
			cfg.BurstMeanSec = 0.1 + 2*r.Float64()
			cfg.BurstFactor = 1 + 3*r.Float64()
		}
		cfg.QueueCap = 1 + r.IntN(64)
		rec := obs.New("conserve", 0)
		cfg.Recorder = rec
		type seen struct {
			admitted, shed uint64
			lastFinish     float64
		}
		probed := make([]seen, cfg.Nodes)
		cfg.Probe = func(node int, id uint64, arrivalSec, latencySec float64, dropped bool) {
			p := &probed[node]
			if dropped {
				p.shed++
				return
			}
			if finish := arrivalSec + latencySec; finish < p.lastFinish {
				t.Fatalf("trial %d node %d: request %#x finishes at %v, before the previous one's %v", trial, node, id, finish, p.lastFinish)
			} else {
				p.lastFinish = finish
			}
			p.admitted++
		}
		g := New(cfg)
		caps := make([]float64, cfg.Nodes)
		for sim := 0.0; sim < 8; {
			dt := []float64{0.001, 0.032, 0.25, 1 + 2*r.Float64()}[r.IntN(4)]
			for i := range caps {
				// From a tenth to ten times the node's mean offered work.
				caps[i] = cfg.RatePerSec * cfg.DemandGInst * math.Exp(math.Log(10)*(2*r.Float64()-1))
			}
			g.Epoch(nil, dt, caps)
			sim += dt
			for i := 0; i < cfg.Nodes; i++ {
				if d := g.QueueDepth(i); d > cfg.QueueCap {
					t.Fatalf("trial %d node %d: queue depth %d exceeds cap %d", trial, i, d, cfg.QueueCap)
				}
			}
		}

		log := rec.Snapshot()
		if len(log.Sources) != cfg.Nodes {
			t.Fatalf("trial %d: %d recorder sources for %d nodes", trial, len(log.Sources), cfg.Nodes)
		}
		lat := g.Latency()
		var completed, dropped uint64
		var sumLat, maxLat float64
		hist := make([]uint64, len(obs.HistBuckets(obs.HRequestLatencySec))+1)
		for i := 0; i < cfg.Nodes; i++ {
			ns := g.NodeSnapshot(i)
			if ns.Completed+ns.Dropped != ns.Seq {
				t.Fatalf("trial %d node %d: %d admitted + %d shed != %d arrivals", trial, i, ns.Completed, ns.Dropped, ns.Seq)
			}
			if p := probed[i]; p.admitted != ns.Completed || p.shed != ns.Dropped {
				t.Fatalf("trial %d node %d: probe saw %d admitted and %d shed, node counts %d and %d", trial, i, p.admitted, p.shed, ns.Completed, ns.Dropped)
			}
			src := &log.Sources[i]
			if want := fmt.Sprintf("node%04d", i); !strings.Contains(src.Name, want) {
				t.Fatalf("trial %d: source %d is %q, want node %s", trial, i, src.Name, want)
			}
			if src.Counters[obs.CRequestsServed] != ns.Completed || src.Counters[obs.CRequestsDropped] != ns.Dropped {
				t.Fatalf("trial %d node %d: recorder served %d dropped %d, node %d and %d", trial, i,
					src.Counters[obs.CRequestsServed], src.Counters[obs.CRequestsDropped], ns.Completed, ns.Dropped)
			}
			completed += ns.Completed
			dropped += ns.Dropped
			sumLat += ns.SumLatSec
			maxLat = math.Max(maxLat, ns.MaxLatSec)
			for b, n := range ns.Hist {
				hist[b] += n
			}
		}
		if lat.Completed != completed || lat.Dropped != dropped || lat.MaxSec != maxLat {
			t.Fatalf("trial %d: Latency() %+v, node totals %d admitted, %d shed, max %v", trial, lat, completed, dropped, maxLat)
		}
		if completed > 0 && lat.MeanSec != sumLat/float64(completed) {
			t.Fatalf("trial %d: mean latency %v, node totals give %v", trial, lat.MeanSec, sumLat/float64(completed))
		}
		if h := log.Hists[obs.HRequestLatencySec]; h.Count != completed || !reflect.DeepEqual(h.Counts, hist) {
			t.Fatalf("trial %d: recorder histogram %d requests in %v, nodes %d in %v", trial, h.Count, h.Counts, completed, hist)
		}
	}
}

// BenchmarkEpoch times one 0.25 s admission epoch of a 64-node serving
// stream, run serially (a nil pool), at the default calibration and
// 80 GIPS per node: about 2,000 requests drawn, queued and retired per op,
// also reported per request.
func BenchmarkEpoch(b *testing.B) {
	const nodes, epochSec = 64, 0.25
	g := New(DefaultConfig(nodes, 1))
	caps := flatCaps(nodes, 80)
	var served uint64
	b.ReportAllocs()
	for b.Loop() {
		g.Epoch(nil, epochSec, caps)
	}
	for i := 0; i < nodes; i++ {
		s := g.NodeSnapshot(i)
		served += s.Completed + s.Dropped
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(served), "ns/request")
}
