// Package traffic is the open-loop request layer of the fleet-scale
// serving experiments: a deterministic arrival process per node (Poisson
// base rate shaped by a diurnal envelope and burst episodes), per-request
// service demands, and admission into per-node FIFO run queues whose
// latency and shed accounting feed the paper's system-level QoS questions
// (tail latency and Joules/query under adaptive guardbanding).
//
// Determinism contract — the same one the simulation layers obey:
//
//   - every node owns named RNG streams derived from (Seed, node index),
//     so which goroutine processes a node cannot change a single draw;
//   - arrivals are generated as a continuous stream (each accepted arrival
//     eagerly draws the next one), so chopping simulated time into epochs
//     of any granularity — the macro lane's wide spans or the exact lane's
//     1 ms steps — consumes the identical draw sequence;
//   - queueing is resolved analytically at admission time (finish = max
//     (arrival, backlog) + demand/capacity), so latencies are a pure
//     function of the arrival stream and the per-epoch capacity samples,
//     not of scheduler interleaving.
//
// Latency percentiles come from fixed-bucket histograms in the exact
// geometry of obs.HRequestLatencySec: integer counts merged in node index
// order, read back with in-bucket linear interpolation — bit-identical at
// any worker count.
package traffic

import (
	"fmt"
	"math"
	"runtime"

	"agsim/internal/obs"
	"agsim/internal/parallel"
	"agsim/internal/rng"
)

// Config calibrates the request stream offered to a fleet.
type Config struct {
	// Nodes is the number of per-node generators (one run queue each).
	Nodes int
	// RatePerSec is the base mean arrival rate per node; the diurnal and
	// burst envelopes modulate it.
	RatePerSec float64
	// DemandGInst is the mean per-request instruction footprint; service
	// time is demand / node capacity (GInst per second). Demands are
	// exponentially distributed around the mean (search-style traffic has
	// heavy service-time variance).
	DemandGInst float64
	// DiurnalAmplitude in [0,1) shapes the rate as
	// 1 + A*sin(2*pi*t/DiurnalPeriodSec) — the load curve of a day,
	// compressed to simulation scale.
	DiurnalAmplitude float64
	// DiurnalPeriodSec is the envelope period; ignored when the amplitude
	// is zero.
	DiurnalPeriodSec float64
	// BurstRatePerSec is the Poisson rate of burst-episode starts per
	// node; zero disables episodes (and leaves the episode stream
	// untouched, so enabling bursts never shifts the arrival draws of a
	// burst-free configuration).
	BurstRatePerSec float64
	// BurstMeanSec is the mean episode duration (exponential).
	BurstMeanSec float64
	// BurstFactor multiplies the rate inside an episode (>= 1).
	BurstFactor float64
	// QueueCap bounds each node's run queue (waiting + in service);
	// arrivals beyond it are shed and counted, never silently lost.
	QueueCap int
	// Seed roots every per-node stream.
	Seed uint64
	// Recorder, when non-nil, receives per-node served/dropped counters
	// and the request-latency histogram; each node gets its own shard
	// (created here, deterministically, in index order) so concurrent
	// epochs merge independent of scheduling.
	Recorder *obs.Recorder
	// Probe, when non-nil, observes every request in admission order:
	// (node, id, arrival, latency, dropped). Latency is 0 for dropped
	// requests. Probed generators must be driven serially — the probe is
	// the one seam that sees nodes interleaved.
	Probe func(node int, id uint64, arrivalSec, latencySec float64, dropped bool)
}

// DefaultConfig returns a serving-style calibration: ~120 requests/s/node
// of 0.4 GInst each, a gentle diurnal swing with occasional 1.6x bursts,
// and a 256-deep run queue.
func DefaultConfig(nodes int, seed uint64) Config {
	return Config{
		Nodes:            nodes,
		RatePerSec:       120,
		DemandGInst:      0.4,
		DiurnalAmplitude: 0.15,
		DiurnalPeriodSec: 600,
		BurstRatePerSec:  1.0 / 120,
		BurstMeanSec:     8,
		BurstFactor:      1.6,
		QueueCap:         256,
		Seed:             seed,
	}
}

// Validate reports the first nonsensical parameter, or nil.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("traffic: need at least one node, got %d", c.Nodes)
	case c.RatePerSec <= 0:
		return fmt.Errorf("traffic: non-positive arrival rate %v", c.RatePerSec)
	case c.DemandGInst <= 0:
		return fmt.Errorf("traffic: non-positive demand %v", c.DemandGInst)
	case c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1:
		return fmt.Errorf("traffic: diurnal amplitude %v out of [0,1)", c.DiurnalAmplitude)
	case c.DiurnalAmplitude > 0 && c.DiurnalPeriodSec <= 0:
		return fmt.Errorf("traffic: diurnal period %v with amplitude %v", c.DiurnalPeriodSec, c.DiurnalAmplitude)
	case c.BurstRatePerSec < 0:
		return fmt.Errorf("traffic: negative burst rate %v", c.BurstRatePerSec)
	case c.BurstRatePerSec > 0 && (c.BurstMeanSec <= 0 || c.BurstFactor < 1):
		return fmt.Errorf("traffic: burst episodes need positive duration and factor >= 1 (got %v s, %vx)", c.BurstMeanSec, c.BurstFactor)
	case c.QueueCap < 1:
		return fmt.Errorf("traffic: queue cap %d < 1", c.QueueCap)
	}
	return nil
}

// node is one per-node generator: its streams, its arrival look-ahead, its
// burst schedule, and its run queue (a ring of absolute finish times in
// FIFO = finish order).
type node struct {
	arrivals *rng.Source // inter-arrival thinning + demand draws
	bursts   *rng.Source // episode schedule (separate stream: toggling bursts must not shift arrivals)

	// nextArrival/nextDemand are the eagerly drawn look-ahead: consuming
	// them and drawing the next pair keeps the draw sequence independent
	// of epoch granularity.
	nextArrival float64
	nextDemand  float64

	// Current-or-next burst episode [burstStart, burstEnd).
	burstStart, burstEnd float64

	// freeAt is the absolute time the node drains its admitted backlog.
	freeAt float64

	// fin is the run-queue ring: absolute finish times of admitted
	// requests, oldest at head. FIFO service at a single capacity makes
	// finish times monotone, so depth-at-arrival is a head pop.
	fin   []float64
	head  int
	depth int

	seq       uint64
	completed uint64
	dropped   uint64
	sumLat    float64
	maxLat    float64
	hist      []uint64

	rec *obs.Recorder
	src int32
}

// Generator drives every node's request stream against per-epoch capacity
// samples.
type Generator struct {
	cfg     Config
	rateMax float64
	now     float64
	bounds  []float64
	nodes   []node

	// epoch fan-out state (set before ForEach so the per-node closure is
	// allocated once, not per epoch).
	epochDt   float64
	epochGIPS []float64
	nodeFn    func(int)
}

// New builds a generator; it panics on an invalid configuration (request
// streams are constructed from literals, not user input).
func New(cfg Config) *Generator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{cfg: cfg, bounds: obs.HistBuckets(obs.HRequestLatencySec)}
	g.rateMax = cfg.RatePerSec * (1 + cfg.DiurnalAmplitude)
	if cfg.BurstRatePerSec > 0 {
		g.rateMax *= cfg.BurstFactor
	}
	g.nodes = make([]node, cfg.Nodes)
	for i := range g.nodes {
		nd := &g.nodes[i]
		name := fmt.Sprintf("node%04d", i)
		nd.arrivals = rng.New(cfg.Seed, "traffic/"+name+"/arrivals")
		nd.bursts = rng.New(cfg.Seed, "traffic/"+name+"/bursts")
		nd.fin = make([]float64, cfg.QueueCap)
		nd.hist = make([]uint64, len(g.bounds)+1)
		nd.rec = cfg.Recorder.Shard(name)
		nd.src = nd.rec.Source("traffic")
		g.drawNext(nd)
	}
	g.nodeFn = g.epochNode
	return g
}

// rateAt returns the instantaneous arrival rate at time t, advancing the
// node's burst schedule. Callers query monotonically increasing times (the
// thinning candidates), which the lazy schedule generation relies on.
func (g *Generator) rateAt(nd *node, t float64) float64 {
	rate := g.cfg.RatePerSec
	if a := g.cfg.DiurnalAmplitude; a > 0 {
		rate *= 1 + a*math.Sin(2*math.Pi*t/g.cfg.DiurnalPeriodSec)
	}
	if g.cfg.BurstRatePerSec > 0 {
		for t >= nd.burstEnd {
			nd.burstStart = nd.burstEnd + nd.bursts.Exp(1/g.cfg.BurstRatePerSec)
			nd.burstEnd = nd.burstStart + nd.bursts.Exp(g.cfg.BurstMeanSec)
		}
		if t >= nd.burstStart {
			rate *= g.cfg.BurstFactor
		}
	}
	return rate
}

// drawNext consumes the node's current look-ahead and draws the next
// (arrival, demand) pair by thinning against the rate ceiling.
func (g *Generator) drawNext(nd *node) {
	t := nd.nextArrival
	for {
		t += nd.arrivals.Exp(1 / g.rateMax)
		if nd.arrivals.Float64()*g.rateMax <= g.rateAt(nd, t) {
			break
		}
	}
	nd.nextArrival = t
	nd.nextDemand = nd.arrivals.Exp(g.cfg.DemandGInst)
}

// RequestID composes the deterministic id of node n's seq-th request.
func RequestID(n int, seq uint64) uint64 { return uint64(n)<<32 | seq }

// epochNode processes node i's arrivals in [now, now+epochDt) at the
// capacity sampled for this epoch. Allocation-free.
func (g *Generator) epochNode(i int) {
	nd := &g.nodes[i]
	gips := g.epochGIPS[i]
	if gips <= 0 {
		panic(fmt.Sprintf("traffic: non-positive capacity %v for node %d", gips, i))
	}
	end := g.now + g.epochDt
	cap := len(nd.fin)
	for nd.nextArrival < end {
		arrival := nd.nextArrival
		demand := nd.nextDemand
		g.drawNext(nd)
		id := RequestID(i, nd.seq)
		nd.seq++

		// Retire queue entries that finished before this arrival.
		for nd.depth > 0 && nd.fin[nd.head] <= arrival {
			nd.head++
			if nd.head == cap {
				nd.head = 0
			}
			nd.depth--
		}
		if nd.depth >= cap {
			nd.dropped++
			nd.rec.Inc(nd.src, obs.CRequestsDropped)
			if g.cfg.Probe != nil {
				g.cfg.Probe(i, id, arrival, 0, true)
			}
			continue
		}

		start := arrival
		if nd.freeAt > start {
			start = nd.freeAt
		}
		finish := start + demand/gips
		nd.freeAt = finish
		tail := nd.head + nd.depth
		if tail >= cap {
			tail -= cap
		}
		nd.fin[tail] = finish
		nd.depth++

		lat := finish - arrival
		nd.completed++
		nd.sumLat += lat
		if lat > nd.maxLat {
			nd.maxLat = lat
		}
		b := 0
		for b < len(g.bounds) && lat > g.bounds[b] {
			b++
		}
		nd.hist[b]++
		nd.rec.Inc(nd.src, obs.CRequestsServed)
		nd.rec.Observe(obs.HRequestLatencySec, lat)
		if g.cfg.Probe != nil {
			g.cfg.Probe(i, id, arrival, lat, false)
		}
	}
}

// Epoch advances every node's request stream by dtSec at the given
// per-node capacities (GInst per second, typically a point read of node
// throughput at the epoch boundary). Nodes are independent, so they fan
// out on the pool; a nil pool runs serially. Per-node results are
// bit-identical either way.
func (g *Generator) Epoch(pool *parallel.Pool, dtSec float64, capacityGIPS []float64) {
	if dtSec <= 0 {
		panic(fmt.Sprintf("traffic: non-positive epoch %v", dtSec))
	}
	if len(capacityGIPS) != len(g.nodes) {
		panic(fmt.Sprintf("traffic: %d capacities for %d nodes", len(capacityGIPS), len(g.nodes)))
	}
	g.epochDt = dtSec
	g.epochGIPS = capacityGIPS
	if pool.Serial() || g.cfg.Probe != nil || runtime.GOMAXPROCS(0) == 1 {
		for i := range g.nodes {
			g.epochNode(i)
		}
	} else {
		parallel.ForEach(pool, len(g.nodes), g.nodeFn)
	}
	g.now += dtSec
}

// Now returns the generator's simulated clock.
func (g *Generator) Now() float64 { return g.now }

// Nodes returns the per-node generator count.
func (g *Generator) Nodes() int { return len(g.nodes) }

// QueueDepth returns node i's run-queue occupancy at the current clock —
// admitted requests that have not finished — without mutating the queue.
// TestConservationRandom (and TestForcedOverloadAccounting) read it
// between epochs to hold every queue within QueueCap.
func (g *Generator) QueueDepth(i int) int {
	nd := &g.nodes[i]
	depth := 0
	for k := 0; k < nd.depth; k++ {
		idx := nd.head + k
		if idx >= len(nd.fin) {
			idx -= len(nd.fin)
		}
		if nd.fin[idx] > g.now {
			depth++
		}
	}
	return depth
}

// Summary are the merged request statistics of a run.
type Summary struct {
	Completed uint64
	Dropped   uint64
	MeanSec   float64
	P50Sec    float64
	P95Sec    float64
	P99Sec    float64
	MaxSec    float64
}

// Latency merges every node's accounting in index order and extracts the
// percentiles from the summed fixed-bucket histogram.
func (g *Generator) Latency() Summary {
	merged := make([]uint64, len(g.bounds)+1)
	var s Summary
	var sum float64
	for i := range g.nodes {
		nd := &g.nodes[i]
		s.Completed += nd.completed
		s.Dropped += nd.dropped
		sum += nd.sumLat
		if nd.maxLat > s.MaxSec {
			s.MaxSec = nd.maxLat
		}
		for b, n := range nd.hist {
			merged[b] += n
		}
	}
	if s.Completed > 0 {
		s.MeanSec = sum / float64(s.Completed)
	}
	s.P50Sec = quantile(g.bounds, merged, s.Completed, s.MaxSec, 0.50)
	s.P95Sec = quantile(g.bounds, merged, s.Completed, s.MaxSec, 0.95)
	s.P99Sec = quantile(g.bounds, merged, s.Completed, s.MaxSec, 0.99)
	return s
}

// quantile reads the q-quantile out of a fixed-bucket histogram by linear
// interpolation inside the covering bucket; the overflow bin interpolates
// toward the observed maximum. Integer bucket counts make the result
// bit-identical however the counts were accumulated.
func quantile(bounds []float64, counts []uint64, total uint64, maxSec float64, q float64) float64 {
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	cum := 0.0
	for b, n := range counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= target {
			lo := 0.0
			if b > 0 {
				lo = bounds[b-1]
			}
			hi := maxSec
			if b < len(bounds) {
				hi = bounds[b]
			}
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*(target-cum)/float64(n)
		}
		cum = next
	}
	return maxSec
}

// NodeSnapshot is one node's complete generator state for determinism
// tests: identical streams must yield DeepEqual snapshots however the run
// was chopped or fanned out.
type NodeSnapshot struct {
	Seq         uint64
	Completed   uint64
	Dropped     uint64
	SumLatSec   float64
	MaxLatSec   float64
	FreeAtSec   float64
	NextArrival float64
	Hist        []uint64
}

// NodeSnapshot returns node i's snapshot (the histogram is copied).
func (g *Generator) NodeSnapshot(i int) NodeSnapshot {
	nd := &g.nodes[i]
	return NodeSnapshot{
		Seq:         nd.seq,
		Completed:   nd.completed,
		Dropped:     nd.dropped,
		SumLatSec:   nd.sumLat,
		MaxLatSec:   nd.maxLat,
		FreeAtSec:   nd.freeAt,
		NextArrival: nd.nextArrival,
		Hist:        append([]uint64(nil), nd.hist...),
	}
}
