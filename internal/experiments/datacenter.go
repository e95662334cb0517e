package experiments

import (
	"fmt"

	"agsim/internal/cluster"
	"agsim/internal/firmware"
	"agsim/internal/parallel"
	"agsim/internal/server"
	"agsim/internal/trace"
	"agsim/internal/workload"
)

// DatacenterResult extends the paper's conclusion — "these node-level
// improvements, when put into proper context (hundreds to thousands of
// nodes), yield large savings" — into a measurable experiment: sweep
// cluster utilization and compare watts-per-unit-throughput under three
// policies:
//
//   - naive: jobs spread round-robin over all nodes, static guardband;
//   - consolidate: jobs packed onto few nodes (empties suspended), but
//     each node schedules conventionally (consolidated sockets), adaptive
//     guardbanding on;
//   - ags: the full two-level policy — consolidate across nodes, loadline
//     borrowing within each — adaptive guardbanding on.
type DatacenterResult struct {
	// Power: one series per policy, cluster watts vs offered jobs.
	Power *trace.Figure
	// Efficiency: one series per policy, watts per kMIPS vs offered jobs.
	Efficiency *trace.Figure

	// SavingAtHalfLoad is the AGS policy's power saving over naive at 50%
	// cluster utilization.
	SavingAtHalfLoad float64
	// AGSBeatsConsolidateEverywhere reports whether the full policy was
	// never worse than consolidate-only.
	AGSBeatsConsolidateEverywhere bool
}

// datacenterPolicy names one scheduling policy of the sweep.
type datacenterPolicy struct {
	name string
	run  func(o Options, jobs int) (powerW, totalMIPS float64)
}

// DatacenterSweep runs the utilization sweep on an o.Nodes-node cluster
// (default four) with four-thread raytrace-class jobs. Job counts scale
// with the fleet so each point keeps its utilization meaning.
func DatacenterSweep(o Options) DatacenterResult {
	res := DatacenterResult{
		Power:      trace.NewFigure("Datacenter sweep: cluster power vs offered jobs"),
		Efficiency: trace.NewFigure("Datacenter sweep: W per kMIPS vs offered jobs"),
	}
	policies := []datacenterPolicy{
		{"naive", runNaive},
		{"consolidate", func(o Options, jobs int) (float64, float64) { return runCluster(o, jobs, false) }},
		{"ags", func(o Options, jobs int) (float64, float64) { return runCluster(o, jobs, true) }},
	}

	jobCounts := o.dcJobCounts()

	// The policy × job-count grid is one flat list of independent cluster
	// simulations; fan it out and aggregate in order.
	type gridPoint struct {
		pol  datacenterPolicy
		jobs int
	}
	var grid []gridPoint
	for _, pol := range policies {
		for _, jobs := range jobCounts {
			grid = append(grid, gridPoint{pol, jobs})
		}
	}
	type point struct{ power, mips float64 }
	pts := parallel.Sweep(o.pool(), grid, func(_ int, gp gridPoint) point {
		power, mips := gp.pol.run(o, gp.jobs)
		return point{power, mips}
	})

	results := map[string]map[int]point{}
	k := 0
	for _, pol := range policies {
		results[pol.name] = map[int]point{}
		ps := res.Power.NewSeries(pol.name, "jobs", "W")
		es := res.Efficiency.NewSeries(pol.name, "jobs", "W/kMIPS")
		for _, jobs := range jobCounts {
			pt := pts[k]
			k++
			results[pol.name][jobs] = pt
			ps.Add(float64(jobs), pt.power)
			if pt.mips > 0 {
				es.Add(float64(jobs), pt.power/(pt.mips/1000))
			}
		}
	}

	res.AGSBeatsConsolidateEverywhere = true
	for _, jobs := range jobCounts {
		ags := results["ags"][jobs]
		cons := results["consolidate"][jobs]
		if ags.power > cons.power*1.002 {
			res.AGSBeatsConsolidateEverywhere = false
		}
	}
	// Half load on an N-node, 16-cores-each cluster with 4-thread jobs is
	// 2N jobs; under Quick use the largest measured count.
	half := jobCounts[len(jobCounts)-1]
	res.SavingAtHalfLoad = improvementPct(results["naive"][half].power, results["ags"][half].power)
	return res
}

// DatacenterSimSeconds returns the simulated seconds one DatacenterSweep
// call covers at the given options: every policy × job-count grid point
// advances its cluster (or naive fleet) through the settle and measure
// spans. Benchmarks report it so bench.sh can record wall-clock per
// simulated second alongside raw ns/op — the ratio that stays comparable
// when the fleet size or sweep grid changes.
func DatacenterSimSeconds(o Options) float64 {
	const policies = 3
	return float64(policies*len(o.dcJobCounts())) * (o.SettleSec + o.MeasureSec)
}

// runNaive spreads jobs round-robin across always-on nodes with static
// guardbands: the no-AGS datacenter.
func runNaive(o Options, jobs int) (float64, float64) {
	nodes := o.dcNodes()
	srvs := make([]*server.Server, nodes)
	for i := range srvs {
		cfg := o.serverConfig(o.Seed + uint64(i))
		cfg.Recorder = o.Recorder.Shard(fmt.Sprintf("dc/naive/%d/node%02d", jobs, i))
		srvs[i] = acquireServer(cfg)
		srvs[i].SetMode(firmware.Static)
	}
	d := workload.MustGet("raytrace")
	perNode := make([]int, nodes)
	for j := 0; j < jobs; j++ {
		node := j % nodes
		base := perNode[node] * 4
		pl := make([]server.Placement, 4)
		for t := range pl {
			core := base + t
			pl[t] = server.Placement{Socket: core / 8, Core: core % 8}
		}
		srvs[node].MustSubmit(fmt.Sprintf("j%d", j), d, pl, 1e9)
		perNode[node]++
	}
	for _, s := range srvs {
		s.Settle(o.SettleSec)
	}
	for _, s := range srvs {
		if o.Sampled {
			// Each independent server gets its own governor for the
			// measurement span.
			o.governor(s).Run(o.MeasureSec, nil)
			continue
		}
		s.Settle(o.MeasureSec)
	}
	var power, mips float64
	for _, s := range srvs {
		power += float64(s.TotalPower()) + cluster.PlatformIdleW
		for si := 0; si < s.Sockets(); si++ {
			mips += float64(s.Chip(si).TotalMIPS())
		}
		releaseServer(s)
	}
	return power, mips
}

// runCluster uses the cluster layer: consolidation across nodes always;
// borrowing within nodes only when ags is true (otherwise each job stays
// on one socket, the conventional schedule).
func runCluster(o Options, jobs int, ags bool) (float64, float64) {
	cfg := o.serverConfig(o.Seed)
	cfg.Recorder = o.Recorder.Shard(fmt.Sprintf("dc/cluster/%d/ags=%v", jobs, ags))
	c := acquireCluster(o.dcNodes(), cfg)
	c.SetMode(firmware.Undervolt)
	d := workload.MustGet("raytrace")
	if !ags {
		// Defeat intra-node borrowing by making the job look
		// sharing-heavy to the placement policy while keeping its real
		// execution behaviour. This isolates the borrowing contribution.
		d.Sharing = 0.99
	}
	for j := 0; j < jobs; j++ {
		if _, err := c.Submit(fmt.Sprintf("j%d", j), d, 4, 1e9); err != nil {
			panic(err)
		}
	}
	c.Settle(o.SettleSec)
	if o.Sampled {
		// Nodes advance independently, so each powered node's server gets
		// its own governor for the measurement span, as in runNaive.
		for i := 0; i < c.Nodes(); i++ {
			if s := c.Node(i).Server(); s != nil {
				o.governor(s).Run(o.MeasureSec, nil)
			}
		}
	} else {
		c.Settle(o.MeasureSec)
	}
	power := float64(c.TotalPower())
	mips := c.TotalMIPS()
	releaseCluster(c)
	return power, mips
}
