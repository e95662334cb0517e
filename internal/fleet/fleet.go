// Package fleet is the sharded execution layer for thousands of nodes: it
// partitions a homogeneous server fleet into fixed contiguous shards, each
// owning its nodes' servers, their RNG streams (per-node seeds derived from
// the template), and its own obs recorder sub-tree — and advances every
// shard's nodes through their private multi-rate loops with no per-step
// global barrier.
//
// Each node's trajectory is advanced independently to the caller's horizon
// (Advance's dtSec — typically a traffic epoch boundary) by server.Settle,
// which consults only that node's state, so a node's leap schedule — and
// therefore its entire trajectory — is a pure function of its own seed and
// workload. Shards exist purely to place execution: their count is a
// function of the node count alone (never the worker count), workers steal
// whole shards, and per-node results are bit-identical at any worker count
// or shard size by construction.
//
// Aggregation is merge-on-read: TotalPower/TotalMIPS fold per-node values
// in node-index order straight out of the servers — no synchronization
// with the advance loops is needed because reads happen between Advance
// calls, when every shard is parked at the same horizon.
package fleet

import (
	"fmt"
	"runtime"

	"agsim/internal/obs"
	"agsim/internal/parallel"
	"agsim/internal/server"
)

// DefaultShardNodes is the default shard width. Small enough that hosts up
// to 16-way keep every worker fed at 256 nodes, large enough that a stolen
// shard amortizes its scheduling cost.
const DefaultShardNodes = 16

// seedStride spaces per-node seeds; same convention as internal/cluster.
const seedStride = 104729

// Config describes a fleet.
type Config struct {
	// Nodes is the fleet size.
	Nodes int
	// Template configures every node; Seed and Recorder are overridden per
	// node (Seed + i*104729, recorder shard "shardSSS/nodeNNNN").
	Template server.Config
	// ShardNodes is the shard width (default DefaultShardNodes). The shard
	// partition is a function of Nodes and ShardNodes only — changing the
	// worker count never changes shard ownership of a node, which is what
	// keeps recorder trees and results bit-identical across worker counts.
	ShardNodes int
	// Workers sizes the worker pool (<= 0 selects GOMAXPROCS).
	Workers int
	// Recorder, when non-nil, roots the fleet's recorder tree.
	Recorder *obs.Recorder
	// Build constructs each node's server (default server.New). Sweep
	// drivers pass their arena's acquire here so fleets recycle servers
	// across points.
	Build func(server.Config) (*server.Server, error)
	// Release, when non-nil, receives every server at Close — the arena
	// counterpart of Build.
	Release func(*server.Server)
}

// shard is one worker-owned contiguous node range [lo, hi).
type shard struct {
	lo, hi int
}

// Fleet advances Config.Nodes independent servers by shard.
type Fleet struct {
	cfg     Config
	pool    *parallel.Pool
	servers []*server.Server
	shards  []shard

	// advance fan-out state: dt is set before the stored closure runs so
	// steady-state Advance calls allocate nothing.
	dt        float64
	advanceFn func(int)
}

// New builds the fleet's servers (sharded, seeded, recorder-wired): callers
// configure nodes — submit work, set guardband modes — through Node.
func New(cfg Config) (*Fleet, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("fleet: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.ShardNodes == 0 {
		cfg.ShardNodes = DefaultShardNodes
	}
	if cfg.ShardNodes < 1 {
		return nil, fmt.Errorf("fleet: shard width %d < 1", cfg.ShardNodes)
	}
	build := cfg.Build
	if build == nil {
		build = server.New
	}
	f := &Fleet{cfg: cfg, pool: parallel.NewPool(cfg.Workers)}
	f.servers = make([]*server.Server, cfg.Nodes)
	for lo := 0; lo < cfg.Nodes; lo += cfg.ShardNodes {
		hi := lo + cfg.ShardNodes
		if hi > cfg.Nodes {
			hi = cfg.Nodes
		}
		f.shards = append(f.shards, shard{lo: lo, hi: hi})
	}
	for si := range f.shards {
		sh := &f.shards[si]
		srec := cfg.Recorder.Shard(fmt.Sprintf("shard%03d", si))
		for i := sh.lo; i < sh.hi; i++ {
			scfg := cfg.Template
			scfg.Seed = cfg.Template.Seed + uint64(i)*seedStride
			scfg.Recorder = srec.Shard(fmt.Sprintf("node%04d", i))
			s, err := build(scfg)
			if err != nil {
				return nil, fmt.Errorf("fleet: node %d: %w", i, err)
			}
			f.servers[i] = s
		}
	}
	f.advanceFn = f.advanceShard
	return f, nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *Fleet {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Nodes returns the fleet size.
func (f *Fleet) Nodes() int { return len(f.servers) }

// Shards returns the shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// Pool returns the fleet's worker pool, shared with co-running layers (the
// traffic generator's epoch fan-out) so a run has one concurrency budget.
func (f *Fleet) Pool() *parallel.Pool { return f.pool }

// Node returns node i's server for configuration (submissions, guardband
// mode) and readout.
func (f *Fleet) Node(i int) *server.Server { return f.servers[i] }

// ShapeKey identifies the fleet's structural identity for snapshot
// headers: node count, shard width, and the node template's shape.
func (f *Fleet) ShapeKey() string {
	return fmt.Sprintf("fleet{%d %d %s}", len(f.servers), f.cfg.ShardNodes, f.cfg.Template.ShapeKey())
}

// advanceShard runs shard si's nodes through their private multi-rate
// loops to the current horizon. Allocation-free: segments mutate the
// servers in place.
func (f *Fleet) advanceShard(si int) {
	sh := &f.shards[si]
	for _, s := range f.servers[sh.lo:sh.hi] {
		s.Settle(f.dt)
	}
}

// Advance moves every node forward by exactly dtSec — the event horizon
// the caller chose (a traffic epoch, a settle span). Shards fan out on the
// worker pool and never synchronize inside the span; the only barrier is
// the return from this call, with every node parked at the same horizon.
func (f *Fleet) Advance(dtSec float64) {
	if !(dtSec > 0) {
		panic(fmt.Sprintf("fleet: non-positive horizon %v", dtSec))
	}
	f.dt = dtSec
	if f.pool.Serial() || runtime.GOMAXPROCS(0) == 1 {
		for si := range f.shards {
			f.advanceShard(si)
		}
		return
	}
	parallel.ForEach(f.pool, len(f.shards), f.advanceFn)
}

// ForEachNode runs fn over every node, fanned out shard-by-shard on the
// worker pool — the seam the sampled lane drives per-node governors
// through.
func (f *Fleet) ForEachNode(fn func(i int, s *server.Server)) {
	if f.pool.Serial() || runtime.GOMAXPROCS(0) == 1 {
		for i, s := range f.servers {
			fn(i, s)
		}
		return
	}
	parallel.ForEach(f.pool, len(f.shards), func(si int) {
		sh := &f.shards[si]
		for i := sh.lo; i < sh.hi; i++ {
			fn(i, f.servers[i])
		}
	})
}

// TotalPower folds chip power in node-index order — merge-on-read.
func (f *Fleet) TotalPower() float64 {
	var total float64
	for _, s := range f.servers {
		total += float64(s.TotalPower())
	}
	return total
}

// TotalMIPS folds chip throughput in node-index order, merge-on-read.
func (f *Fleet) TotalMIPS() float64 {
	var total float64
	for i := range f.servers {
		total += f.NodeMIPS(i)
	}
	return total
}

// NodePower returns node i's chip power.
func (f *Fleet) NodePower(i int) float64 {
	return float64(f.servers[i].TotalPower())
}

// NodeMIPS returns node i's instantaneous throughput, folded in socket
// order.
func (f *Fleet) NodeMIPS(i int) float64 {
	s := f.servers[i]
	var mips float64
	for si := 0; si < s.Sockets(); si++ {
		mips += float64(s.Chip(si).TotalMIPS())
	}
	return mips
}

// NodeEnergyJ returns node i's accumulated chip energy.
func (f *Fleet) NodeEnergyJ(i int) float64 {
	return f.servers[i].TotalEnergyJ()
}

// TotalEnergyJ folds accumulated chip energy in node-index order.
func (f *Fleet) TotalEnergyJ() float64 {
	var total float64
	for i := range f.servers {
		total += f.NodeEnergyJ(i)
	}
	return total
}

// ResetEnergy zeroes every node's energy accumulators — the start of a
// measurement span.
func (f *Fleet) ResetEnergy() {
	for _, s := range f.servers {
		s.ResetEnergy()
	}
}

// Time returns the fleet's simulated clock (every node agrees between
// Advance calls).
func (f *Fleet) Time() float64 { return f.servers[0].Time() }

// Close hands every server to the Release hook, if any. The fleet must
// not be used afterwards.
func (f *Fleet) Close() {
	if f.cfg.Release != nil {
		for _, s := range f.servers {
			f.cfg.Release(s)
		}
	}
}
