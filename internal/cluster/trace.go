package cluster

import (
	"fmt"
	"math"

	"agsim/internal/chip"
	"agsim/internal/rng"
	"agsim/internal/workload"
)

// This file adds the dynamic layer on top of the two-level policy: a trace
// player that feeds the cluster a stochastic job stream (arrivals, mixed
// workloads, departures) the way a datacenter scheduler experiences load —
// the setting in which the paper's conclusion ("economies of scale at the
// datacenter level") is supposed to pay off.

// MixEntry is one job class of the offered load.
type MixEntry struct {
	// Bench names the workload in the registry.
	Bench string
	// Threads per job of this class.
	Threads int
	// Weight is the class's relative arrival probability.
	Weight float64
	// WorkGInst is the job's total work.
	WorkGInst float64
}

// TraceConfig shapes the offered load.
type TraceConfig struct {
	// ArrivalPerSec is the Poisson job arrival rate.
	ArrivalPerSec float64
	Mix           []MixEntry
	Seed          uint64
}

// Validate reports the first inconsistent parameter, or nil.
func (tc TraceConfig) Validate() error {
	if tc.ArrivalPerSec <= 0 {
		return fmt.Errorf("cluster: non-positive arrival rate %v", tc.ArrivalPerSec)
	}
	if len(tc.Mix) == 0 {
		return fmt.Errorf("cluster: empty job mix")
	}
	for i, m := range tc.Mix {
		if _, err := workload.Get(m.Bench); err != nil {
			return fmt.Errorf("cluster: mix entry %d: %w", i, err)
		}
		if m.Threads < 1 || m.Weight <= 0 || m.WorkGInst <= 0 {
			return fmt.Errorf("cluster: mix entry %d has invalid parameters", i)
		}
	}
	return nil
}

// PlayerStats summarizes one trace run.
type PlayerStats struct {
	Submitted, Completed, Queued int
	// MaxQueueDepth is the deepest backlog observed.
	MaxQueueDepth int
	// AvgPowerW is the time-averaged cluster draw including platform and
	// suspended floors, over every step played so far.
	AvgPowerW float64
	// AvgPoweredNodes is the time-averaged count of powered servers.
	AvgPoweredNodes float64
	// Seconds is the simulated span played so far.
	Seconds float64
}

// Player drives a cluster from a stochastic trace.
type Player struct {
	c   *Cluster
	cfg TraceConfig
	r   *rng.Source

	queue  []pendingJob
	nextID int
	stats  PlayerStats

	// steps, powerSum and nodesSum accumulate across Run calls, so split
	// runs average exactly as one run of the same total length.
	steps              int
	powerSum, nodesSum float64
}

type pendingJob struct {
	bench   string
	threads int
	work    float64
}

// NewPlayer creates a player for the cluster.
func NewPlayer(c *Cluster, cfg TraceConfig) (*Player, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Player{c: c, cfg: cfg, r: rng.New(cfg.Seed, "cluster/trace")}, nil
}

// Run plays the trace for the given simulated seconds, rounded to whole
// 1 ms steps, and returns the statistics accumulated over every Run so
// far. Jobs that do not fit queue FIFO and are retried as capacity frees
// up.
func (p *Player) Run(seconds float64) PlayerStats {
	steps := int(math.Round(seconds / chip.DefaultStepSec))
	for i := 0; i < steps; i++ {
		// Arrivals for this step.
		for n := p.r.Poisson(p.cfg.ArrivalPerSec * chip.DefaultStepSec); n > 0; n-- {
			m := p.pickClass()
			p.queue = append(p.queue, pendingJob{bench: m.Bench, threads: m.Threads, work: m.WorkGInst})
			p.stats.Submitted++
		}
		if len(p.queue) > p.stats.MaxQueueDepth {
			p.stats.MaxQueueDepth = len(p.queue)
		}

		// Admit from the queue head while capacity allows.
		for len(p.queue) > 0 {
			job := p.queue[0]
			id := fmt.Sprintf("trace-%d", p.nextID)
			if _, err := p.c.Submit(id, workload.MustGet(job.bench), job.threads, job.work); err != nil {
				break // full: keep FIFO order, retry next step
			}
			p.nextID++
			p.queue = p.queue[1:]
		}

		p.c.Step(chip.DefaultStepSec)
		p.stats.Completed += len(p.c.ReapFinished())
		p.powerSum += float64(p.c.TotalPower())
		p.nodesSum += float64(p.c.PoweredNodes())
	}
	p.steps += steps
	p.stats.Queued = len(p.queue)
	if p.steps > 0 {
		p.stats.AvgPowerW = p.powerSum / float64(p.steps)
		p.stats.AvgPoweredNodes = p.nodesSum / float64(p.steps)
	}
	p.stats.Seconds = float64(p.steps) * chip.DefaultStepSec
	return p.stats
}

// pickClass samples the mix by weight.
func (p *Player) pickClass() MixEntry {
	total := 0.0
	for _, m := range p.cfg.Mix {
		total += m.Weight
	}
	x := p.r.Uniform(0, total)
	for _, m := range p.cfg.Mix {
		if x < m.Weight {
			return m
		}
		x -= m.Weight
	}
	return p.cfg.Mix[len(p.cfg.Mix)-1]
}
