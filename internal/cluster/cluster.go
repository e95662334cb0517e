// Package cluster implements the datacenter layer the paper defers to
// future work (§5.1.1): "the scheduler will consolidate workloads onto
// fewer servers first, then on each server loadline borrowing can be used
// to further improve cluster power consumption."
//
// The two-level policy reflects the paper's energy argument: a whole server
// that can be suspended saves its platform power (memory, storage, NIC,
// fans) — far more than adaptive guardbanding can recover — so jobs pack
// onto as few nodes as possible. Within each powered node, however,
// consolidating onto one socket wastes guardband, so threads spread across
// the node's sockets with unused cores power-gated (loadline borrowing).
package cluster

import (
	"fmt"
	"sort"

	"agsim/internal/chip"
	"agsim/internal/firmware"
	"agsim/internal/parallel"
	"agsim/internal/server"
	"agsim/internal/units"
	"agsim/internal/workload"
)

// NodeConfig describes one server of the cluster.
type NodeConfig struct {
	Server server.Config
	// PlatformIdleW is the non-CPU power of a powered-on node: memory,
	// storage, network and cooling. The paper's §5.1.1 argument rests on
	// this being large.
	PlatformIdleW float64
	// SuspendedW is the residual draw of a suspended node.
	SuspendedW float64
}

// DefaultNodeConfig returns a Power 720-class node: two sockets plus
// roughly 120 W of platform overhead (32 GB RAM, disks, fans, PSU losses).
func DefaultNodeConfig(seed uint64) NodeConfig {
	return NodeConfig{
		Server:        server.DefaultConfig(seed),
		PlatformIdleW: 120,
		SuspendedW:    8,
	}
}

// Node is one managed server.
type Node struct {
	Index int
	cfg   NodeConfig
	srv   *server.Server
	on    bool

	// jobs maps job id to its server job for release.
	jobs map[string]*server.Job

	// occupied caches the node's occupied-core count, maintained on
	// Submit/Release/suspend so pick never walks every core of every
	// socket per candidate node. loadedCores remains the ground truth.
	occupied int
}

// On reports whether the node is powered.
func (n *Node) On() bool { return n.on }

// Server exposes the node's server for telemetry (nil while suspended).
func (n *Node) Server() *server.Server {
	if !n.on {
		return nil
	}
	return n.srv
}

// loadedCores returns the number of occupied cores.
func (n *Node) loadedCores() int {
	if !n.on {
		return 0
	}
	total := 0
	for si := 0; si < n.srv.Sockets(); si++ {
		total += n.srv.Chip(si).ActiveCores()
	}
	return total
}

// capacity returns the node's total core count.
func (n *Node) capacity() int {
	return n.cfg.Server.Sockets * n.cfg.Server.CoresPerSocket
}

// Occupied returns the node's occupied-core count (0 while suspended) —
// the occupancy signal placement policies read.
func (n *Node) Occupied() int { return n.occupied }

// Capacity returns the node's total core count.
func (n *Node) Capacity() int { return n.capacity() }

// Cluster is a set of nodes under the two-level AGS policy.
type Cluster struct {
	nodes []*Node
	mode  firmware.Mode
	seed  uint64

	// policy decides two-level placement on Submit; ConsolidateFirst by
	// default, replaceable via SetPolicy.
	policy Policy

	// pool, when non-serial, steps powered nodes concurrently. Nodes share
	// no state within a Step call (each server owns its chips, jobs and
	// RNG streams), so per-node results are identical to the serial order.
	pool *parallel.Pool
}

// New creates a cluster of n nodes from the template configuration; node
// seeds derive from the template seed.
func New(n int, template NodeConfig) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	c := &Cluster{mode: firmware.Undervolt, seed: template.Server.Seed, policy: ConsolidateFirst{}}
	for i := 0; i < n; i++ {
		cfg := template
		cfg.Server.Seed = template.Server.Seed + uint64(i)*104729
		// Each node owns a recorder shard: nodes step concurrently under
		// SetWorkers, and per-node shards (created here, deterministically,
		// in index order) keep the merged log independent of scheduling. A
		// re-powered node re-registers its chips into the same shard, so
		// counters accumulate across power cycles.
		cfg.Server.Recorder = template.Server.Recorder.Shard(fmt.Sprintf("node%02d", i))
		node := &Node{Index: i, cfg: cfg, jobs: map[string]*server.Job{}}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// MustNew is New for static configurations.
func MustNew(n int, template NodeConfig) *Cluster {
	c, err := New(n, template)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset rewinds the cluster to the state New(len(nodes), template) would
// produce: every node suspended with its per-node seed and recorder shard
// re-derived from the template, job maps cleared, Undervolt mode, serial
// stepping. Servers retained from a previous run are NOT reset here — they
// rewind lazily in powerOn — so a pooled cluster registers exactly the
// flight-recorder sources a fresh one would, in the same order.
func (c *Cluster) Reset(template NodeConfig) {
	c.mode = firmware.Undervolt
	c.seed = template.Server.Seed
	c.pool = nil
	c.policy = ConsolidateFirst{}
	for i, n := range c.nodes {
		cfg := template
		cfg.Server.Seed = template.Server.Seed + uint64(i)*104729
		cfg.Server.Recorder = template.Server.Recorder.Shard(fmt.Sprintf("node%02d", i))
		n.cfg = cfg
		n.on = false
		n.occupied = 0
		clear(n.jobs)
	}
}

// ShapeKey identifies the allocation shape of the node template — every
// field except the identity (seed, recorder) Reset rewrites. Arena keys
// for clusters combine it with the node count.
func (nc NodeConfig) ShapeKey() string {
	return fmt.Sprintf("node{%v %v %s}", nc.PlatformIdleW, nc.SuspendedW, nc.Server.ShapeKey())
}

// ShapeKey returns the cluster's shape key: node count plus the node
// template's shape.
func (c *Cluster) ShapeKey() string {
	return fmt.Sprintf("cluster{%d %s}", len(c.nodes), c.nodes[0].cfg.ShapeKey())
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// SetMode selects the guardband mode applied to powered nodes.
func (c *Cluster) SetMode(m firmware.Mode) {
	c.mode = m
	for _, n := range c.nodes {
		if n.on {
			n.srv.SetMode(m)
		}
	}
}

// powerOn boots a node: builds its server on first boot, or rewinds the
// server retained across suspend to fresh-construction state, and applies
// the guardband mode. The reset path is lazy on purpose: resetting at
// suspend (or cluster Reset) time would register the chips' flight-recorder
// sources for nodes that never power back on, diverging the merged log
// from a freshly built cluster's.
func (c *Cluster) powerOn(n *Node) error {
	if n.srv == nil {
		srv, err := server.New(n.cfg.Server)
		if err != nil {
			return err
		}
		n.srv = srv
	} else {
		n.srv.Reset(n.cfg.Server.Seed, n.cfg.Server.Recorder)
	}
	n.on = true
	n.srv.SetMode(c.mode)
	n.srv.GateUnloadedCores() // everything gated until placed
	return nil
}

// suspend powers a node down. Only empty nodes may suspend. The server is
// retained for the next powerOn to rewind instead of reallocating.
func (c *Cluster) suspend(n *Node) {
	if len(n.jobs) > 0 {
		panic(fmt.Sprintf("cluster: suspending node %d with %d jobs", n.Index, len(n.jobs)))
	}
	n.on = false
	n.occupied = 0
}

// Submit places a job of the named workload with the given thread count
// under the two-level policy and returns the chosen node index.
func (c *Cluster) Submit(id string, d workload.Descriptor, threads int, workGInst float64) (int, error) {
	if threads < 1 {
		return -1, fmt.Errorf("cluster: job %s needs at least one thread", id)
	}
	node := c.policy.PickNode(c, threads)
	if node == nil {
		return -1, fmt.Errorf("cluster: no node has %d free cores for job %s", threads, id)
	}
	if !node.on {
		if err := c.powerOn(node); err != nil {
			return -1, err
		}
	}
	placements, err := c.policy.PlaceWithin(node, freeCores(node), d, threads)
	if err != nil {
		return -1, err
	}
	j, err := node.srv.Submit(id, d, placements, workGInst)
	if err != nil {
		return -1, err
	}
	node.jobs[id] = j
	node.occupied += len(placements)
	node.srv.GateUnloadedCores() // power-gate everything unused
	return node.Index, nil
}

// Release removes a finished (or cancelled) job and suspends the node if it
// empties.
func (c *Cluster) Release(id string) error {
	for _, n := range c.nodes {
		if j, ok := n.jobs[id]; ok {
			n.srv.Remove(j)
			delete(n.jobs, id)
			n.occupied -= len(j.Placements)
			if len(n.jobs) == 0 {
				c.suspend(n)
			} else {
				n.srv.GateUnloadedCores()
			}
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown job %s", id)
}

// SetWorkers enables parallel node stepping: n >= 2 steps powered nodes on
// up to n goroutines, n <= 1 restores the serial path, and 0 selects
// parallel.DefaultWorkers(). Safe because Step touches each node's private
// state only, so the worker count never changes results; see
// ARCHITECTURE.md "Concurrency and determinism".
func (c *Cluster) SetWorkers(n int) {
	c.pool = parallel.NewPool(n)
}

// Step advances all powered nodes, concurrently when SetWorkers enabled a
// multi-worker pool. Per-node state after the step is identical either
// way: a node's step reads and writes only that node's server.
func (c *Cluster) Step(dtSec float64) {
	if c.pool.Serial() {
		for _, n := range c.nodes {
			if n.on {
				n.srv.Step(dtSec)
			}
		}
		return
	}
	parallel.ForEach(c.pool, len(c.nodes), func(i int) {
		if n := c.nodes[i]; n.on {
			n.srv.Step(dtSec)
		}
	})
}

// Advance moves every powered node forward by one multi-rate segment of at
// most maxSec and returns the simulated seconds covered. The horizon gather
// is serial and synchronized: only when *every* powered node is quiescent
// does the cluster leap, and all nodes leap by the same cluster-wide minimum
// horizon, so node state is independent of the worker count. The leap (or
// the micro fallback step) then runs on the pool like Step does. The
// fallback uses the earliest per-node grid re-sync fragment (see
// chip.MicroStepSec) so nodes powered on together stay tick-aligned with
// the exact lane.
func (c *Cluster) Advance(maxSec float64) float64 {
	micro := chip.DefaultStepSec
	for _, n := range c.nodes {
		if n.on {
			if m := n.srv.MicroStepSec(); m < micro {
				micro = m
			}
		}
	}
	if maxSec < micro {
		c.Step(maxSec)
		return maxSec
	}
	h := maxSec
	for _, n := range c.nodes {
		if !n.on {
			continue
		}
		quiescent, nh := n.srv.Horizon(maxSec)
		if !quiescent {
			c.Step(micro)
			return micro
		}
		if nh < h {
			h = nh
		}
	}
	if h <= micro {
		c.Step(micro)
		return micro
	}
	if c.pool.Serial() {
		for _, n := range c.nodes {
			if n.on {
				n.srv.MacroStep(h)
			}
		}
		return h
	}
	parallel.ForEach(c.pool, len(c.nodes), func(i int) {
		if n := c.nodes[i]; n.on {
			n.srv.MacroStep(h)
		}
	})
	return h
}

// settleEps matches chip.Settle's residue threshold: spans within a
// nanosecond of covered are complete, never silently truncated.
const settleEps = 1e-9

// Settle advances the cluster for the given simulated seconds on the
// multi-rate path, including any fractional remainder shorter than a step
// (the old int(seconds/step) loop dropped it).
func (c *Cluster) Settle(seconds float64) {
	for remaining := seconds; remaining > settleEps; {
		remaining -= c.Advance(remaining)
	}
}

// ReapFinished releases every job whose threads have completed, returning
// the released ids.
func (c *Cluster) ReapFinished() []string {
	var done []string
	for _, n := range c.nodes {
		for id, j := range n.jobs {
			if j.Done() {
				done = append(done, id)
			}
		}
	}
	sort.Strings(done)
	for _, id := range done {
		if err := c.Release(id); err != nil {
			panic(err) // reaping a job we just enumerated cannot fail
		}
	}
	return done
}

// TotalPower returns the cluster draw: chips plus platform overheads and
// suspended-node floors.
func (c *Cluster) TotalPower() units.Watt {
	var total units.Watt
	for _, n := range c.nodes {
		if n.on {
			total += n.srv.TotalPower() + units.Watt(n.cfg.PlatformIdleW)
		} else {
			total += units.Watt(n.cfg.SuspendedW)
		}
	}
	return total
}

// TotalMIPS returns the cluster's instruction throughput, accumulated in
// node order then socket order over the powered nodes — the float64 sum
// the datacenter experiments fold. Suspended nodes are excluded even
// when they retain a server: a retained server rewinds lazily in powerOn
// (see Reset), so its chips carry stale readings until the next boot.
func (c *Cluster) TotalMIPS() float64 {
	var mips float64
	for _, n := range c.nodes {
		if !n.on {
			continue
		}
		for si := 0; si < n.srv.Sockets(); si++ {
			mips += float64(n.srv.Chip(si).TotalMIPS())
		}
	}
	return mips
}

// PoweredNodes returns how many nodes are on.
func (c *Cluster) PoweredNodes() int {
	count := 0
	for _, n := range c.nodes {
		if n.on {
			count++
		}
	}
	return count
}

// Jobs returns the live job count.
func (c *Cluster) Jobs() int {
	count := 0
	for _, n := range c.nodes {
		count += len(n.jobs)
	}
	return count
}
