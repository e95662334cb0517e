package experiments

import (
	"fmt"
	"math"

	"agsim/internal/cluster"
	"agsim/internal/firmware"
	"agsim/internal/fleet"
	"agsim/internal/parallel"
	"agsim/internal/sample"
	"agsim/internal/server"
	"agsim/internal/trace"
	"agsim/internal/traffic"
	"agsim/internal/workload"
)

// WebsearchQoSResult is the fleet-scale serving study the paper's §5.2.2
// QoS discussion points at: AGS vs static guardband on request tail
// latency and energy per query, under open-loop traffic across load
// levels. Three guardband policies serve the identical arrival streams:
//
//   - static: the full static guardband (the baseline datacenter);
//   - ags-energy: adaptive undervolting — same frequency, lower power, so
//     latency holds and Joules/query falls (the §5.1 energy story);
//   - ags-boost: adaptive overclocking — the reclaimed margin buys
//     frequency, so capacity rises and the tail shortens (the §5.2
//     performance story).
type WebsearchQoSResult struct {
	// Latency: p99 request latency vs offered load, one series per policy.
	Latency *trace.Figure
	// Energy: Joules per served query vs offered load, one series per
	// policy.
	Energy *trace.Figure
	// Table: per policy x load: served, dropped, p50/p95/p99, J/query.
	Table *trace.Table

	// Peak-load (highest swept utilization) headline numbers.
	P99StaticSec float64
	P99BoostSec  float64
	// JoulesPerQueryStatic/Energy compare the energy policies at peak load.
	JoulesPerQueryStatic float64
	JoulesPerQueryEnergy float64
	// EnergySavingPct is ags-energy's Joules/query saving over static at
	// peak load.
	EnergySavingPct float64
	// QueriesServed is the static policy's served count at peak load —
	// arrival streams are deterministic, so this is bit-identical across
	// workers and lanes.
	QueriesServed float64
}

// wsqPolicy names one guardband policy of the sweep.
type wsqPolicy struct {
	name string
	mode firmware.Mode
}

var wsqPolicies = []wsqPolicy{
	{"static", firmware.Static},
	{"ags-energy", firmware.Undervolt},
	{"ags-boost", firmware.Overclock},
}

// wsqLoads returns the swept utilization levels (fractions of the static
// fleet's serving capacity). The sweep stops at 0.9: open queues amplify
// capacity noise without bound as utilization approaches 1, and past 0.9
// the tail stops discriminating between policies and starts measuring the
// amplification itself.
func (o Options) wsqLoads() []float64 {
	if o.Quick {
		return []float64{0.75, 0.9}
	}
	return []float64{0.55, 0.75, 0.9}
}

// wsqEpochs returns the traffic epoch count over the measurement span:
// capacity is point-read and the generator advanced once per epoch.
func (o Options) wsqEpochs() int {
	if o.Quick {
		return 4
	}
	return 8
}

// wsqPlacements fills every core of a node with serving threads.
func wsqPlacements(cfg server.Config) []server.Placement {
	pl := make([]server.Placement, cfg.Sockets*cfg.CoresPerSocket)
	for c := range pl {
		pl[c] = server.Placement{Socket: c / cfg.CoresPerSocket, Core: c % cfg.CoresPerSocket}
	}
	return pl
}

// wsqCapacityGIPS probes one static-guardband node's steady serving
// throughput and quantizes it to integer GIPS. The quantized probe
// calibrates every policy's arrival rates, so the offered load — and with
// it every arrival timestamp and request id — is identical across
// policies, worker counts, and stepping lanes (lane-level throughput
// differences are far below the 1 GIPS quantum).
func wsqCapacityGIPS(o Options) float64 {
	cfg := o.serverConfig(o.Seed ^ hash("wsq/probe"))
	cfg.Recorder = o.Recorder.Shard("wsq/probe")
	s := acquireServer(cfg)
	s.MustSubmit("serve", workload.MustGet("websearch"), wsqPlacements(cfg), 1e9)
	s.SetMode(firmware.Static)
	s.Settle(o.SettleSec)
	var mips float64
	k := o.measureSpan(s, o.MeasureSec, func(dt float64) {
		for si := 0; si < s.Sockets(); si++ {
			mips += float64(s.Chip(si).TotalMIPS()) * dt
		}
	})
	releaseServer(s)
	return math.Max(1, math.Round(mips/k/1000))
}

// wsqTrafficConfig builds the arrival process for one load level: the base
// rate targets load x the probed static capacity, with a one-cycle diurnal
// swing and short burst episodes overlaid so queues see realistic
// non-stationarity. Rates are integer-rounded — one more quantization that
// keeps the stream identical wherever it is replayed.
func (o Options) wsqTrafficConfig(nodes int, load, capGIPS float64) traffic.Config {
	const demandGInst = 0.4
	tc := traffic.Config{
		Nodes:            nodes,
		RatePerSec:       math.Max(1, math.Round(load*capGIPS/demandGInst)),
		DemandGInst:      demandGInst,
		DiurnalAmplitude: 0.1,
		DiurnalPeriodSec: o.MeasureSec,
		BurstRatePerSec:  math.Round(2/o.MeasureSec*8) / 8,
		BurstMeanSec:     o.MeasureSec / 32,
		BurstFactor:      1.25,
		QueueCap:         256,
		Seed:             o.Seed,
	}
	return tc
}

// wsqPoint is one (policy, load) cell's outcome.
type wsqPoint struct {
	served, dropped   uint64
	p50, p95, p99     float64
	joulesPerQuery    float64
	totalEnergyJoules float64
}

// runWebsearchPoint serves one load level under one guardband policy on a
// fresh fleet and returns the cell's latency and energy accounting.
func runWebsearchPoint(o Options, pol wsqPolicy, load, capGIPS float64) wsqPoint {
	nodes := o.dcNodes()
	rec := o.Recorder.Shard(fmt.Sprintf("wsq/%s/%03d", pol.name, int(load*100)))
	f := fleet.MustNew(fleet.Config{
		Nodes:    nodes,
		Template: o.serverConfig(o.Seed),
		Workers:  o.Workers,
		Recorder: rec,
		Build:    func(cfg server.Config) (*server.Server, error) { return acquireServer(cfg), nil },
		Release:  releaseServer,
	})
	ws := workload.MustGet("websearch")
	pl := wsqPlacements(o.serverConfig(0))
	for i := 0; i < nodes; i++ {
		s := f.Node(i)
		s.MustSubmit("serve", ws, pl, 1e9)
		s.SetMode(pol.mode)
	}

	var govs []*sample.Governor
	if o.Sampled {
		// Governors are created before the first span and reused across
		// epochs so their phase statistics accumulate over the whole run.
		govs = make([]*sample.Governor, nodes)
		for i := range govs {
			govs[i] = o.governor(f.Node(i))
		}
	}

	f.Advance(o.SettleSec)
	f.ResetEnergy()

	tc := o.wsqTrafficConfig(nodes, load, capGIPS)
	tc.Recorder = rec.Shard("traffic")
	tr := traffic.New(tc)
	caps := make([]float64, nodes)
	epochs := o.wsqEpochs()
	epochSec := o.MeasureSec / float64(epochs)
	for e := 0; e < epochs; e++ {
		// Capacity is a point read at the epoch boundary, quantized to
		// integer GIPS: coarse enough that stepping-lane noise vanishes,
		// fine enough that the policies' real capacity differences (a few
		// percent of ~50 GIPS) stay visible to the queues.
		for i := range caps {
			caps[i] = math.Max(1, math.Round(f.NodeMIPS(i)/1000))
		}
		tr.Epoch(f.Pool(), epochSec, caps)
		if o.Sampled {
			f.ForEachNode(func(i int, s *server.Server) {
				govs[i].Run(epochSec, nil)
			})
		} else {
			f.Advance(epochSec)
		}
	}

	energy := f.TotalEnergyJ() + cluster.PlatformIdleW*float64(nodes)*o.MeasureSec
	sum := tr.Latency()
	f.Close()

	pt := wsqPoint{
		served:            sum.Completed,
		dropped:           sum.Dropped,
		p50:               sum.P50Sec,
		p95:               sum.P95Sec,
		p99:               sum.P99Sec,
		totalEnergyJoules: energy,
	}
	if sum.Completed > 0 {
		pt.joulesPerQuery = energy / float64(sum.Completed)
	}
	return pt
}

// WebsearchQoS runs the load x policy grid. Each cell is an independent
// fleet simulation; cells fan out on the worker pool and aggregate in
// order.
func WebsearchQoS(o Options) WebsearchQoSResult {
	res := WebsearchQoSResult{
		Latency: trace.NewFigure("WebSearch QoS: p99 request latency vs offered load"),
		Energy:  trace.NewFigure("WebSearch QoS: Joules per query vs offered load"),
		Table: trace.NewTable("WebSearch QoS: policy x load",
			"load %", "served", "dropped", "p50 s", "p95 s", "p99 s", "J/query"),
	}
	capGIPS := wsqCapacityGIPS(o)
	loads := o.wsqLoads()

	type cell struct {
		pol  wsqPolicy
		load float64
	}
	var grid []cell
	for _, pol := range wsqPolicies {
		for _, load := range loads {
			grid = append(grid, cell{pol, load})
		}
	}
	pts := parallel.Sweep(o.pool(), grid, func(_ int, c cell) wsqPoint {
		return runWebsearchPoint(o, c.pol, c.load, capGIPS)
	})

	peak := loads[len(loads)-1]
	k := 0
	for _, pol := range wsqPolicies {
		ls := res.Latency.NewSeries(pol.name, "load", "p99 (s)")
		es := res.Energy.NewSeries(pol.name, "load", "J/query")
		for _, load := range loads {
			pt := pts[k]
			k++
			ls.Add(load, pt.p99)
			es.Add(load, pt.joulesPerQuery)
			res.Table.AddRow(fmt.Sprintf("%s @ %.0f%%", pol.name, load*100),
				load*100, float64(pt.served), float64(pt.dropped),
				pt.p50, pt.p95, pt.p99, pt.joulesPerQuery)
			if load == peak {
				switch pol.name {
				case "static":
					res.P99StaticSec = pt.p99
					res.JoulesPerQueryStatic = pt.joulesPerQuery
					res.QueriesServed = float64(pt.served)
				case "ags-energy":
					res.JoulesPerQueryEnergy = pt.joulesPerQuery
				case "ags-boost":
					res.P99BoostSec = pt.p99
				}
			}
		}
	}
	res.EnergySavingPct = improvementPct(res.JoulesPerQueryStatic, res.JoulesPerQueryEnergy)
	return res
}

// WebsearchQoSSimSeconds returns the simulated seconds one WebsearchQoS
// call covers (probe plus every grid cell's settle and measure spans), for
// the benchmarks' sim_s/op metric.
func WebsearchQoSSimSeconds(o Options) float64 {
	cells := float64(len(wsqPolicies) * len(o.wsqLoads()))
	return (cells + 1) * (o.SettleSec + o.MeasureSec)
}
