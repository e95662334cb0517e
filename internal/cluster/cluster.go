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
//
// The policy acts only when a job arrives or leaves. In between, each
// node's firmware and CPM–DPLL loops depend on that node alone, so Settle
// advances the powered nodes one after another, each through its own
// multi-rate loop (server.Settle) — the per-node loop internal/fleet runs.
package cluster

import (
	"fmt"

	"agsim/internal/core"
	"agsim/internal/firmware"
	"agsim/internal/server"
	"agsim/internal/units"
	"agsim/internal/workload"
)

// A node's non-CPU draw, in watts, for a Power 720-class server.
const (
	// PlatformIdleW is the draw of a powered-on node's memory, storage,
	// network, fans and PSU losses (32 GB RAM, disks). The paper's §5.1.1
	// argument rests on this being large.
	PlatformIdleW = 120
	// SuspendedW is the residual draw of a suspended node.
	SuspendedW = 8
)

// Node is one managed server.
type Node struct {
	Index int
	cfg   server.Config
	srv   *server.Server
	on    bool

	// jobs maps job id to its server job for release.
	jobs map[string]*server.Job

	// occupied caches the node's occupied-core count, maintained on
	// Submit/Release/suspend so pick never walks every core of every
	// socket per candidate node. loadedCores remains the ground truth.
	occupied int
}

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
	return n.cfg.Sockets * n.cfg.CoresPerSocket
}

// Cluster is a set of nodes under the two-level AGS policy.
type Cluster struct {
	nodes []*Node
	mode  firmware.Mode
}

// New creates a cluster of n nodes, each a server built from the template
// configuration: it allocates the nodes and runs Reset, which derives each
// node's seed and recorder shard from the template.
func New(n int, template server.Config) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	c := &Cluster{nodes: make([]*Node, n)}
	for i := range c.nodes {
		c.nodes[i] = &Node{Index: i, jobs: map[string]*server.Job{}}
	}
	c.Reset(template)
	return c, nil
}

// MustNew is New for static configurations.
func MustNew(n int, template server.Config) *Cluster {
	c, err := New(n, template)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset sets the cluster's state, for New and for a pooled cluster: every
// node suspended with its seed (template seed + i·104729) and recorder
// shard ("node%02d", created in index order, so a node's log is its own)
// derived from the template, job maps cleared, Undervolt mode. A
// re-powered node re-registers its chips into the same shard, so counters
// accumulate across power cycles. Servers retained from a previous run
// are NOT reset here — they rewind lazily in powerOn — so a pooled cluster
// registers exactly the flight-recorder sources a fresh one would, in the
// same order.
func (c *Cluster) Reset(template server.Config) {
	c.mode = firmware.Undervolt
	for i, n := range c.nodes {
		cfg := template
		cfg.Seed = template.Seed + uint64(i)*104729
		cfg.Recorder = template.Recorder.Shard(fmt.Sprintf("node%02d", i))
		n.cfg = cfg
		n.on = false
		n.occupied = 0
		clear(n.jobs)
	}
}

// ShapeKey is the pool key of a cluster of n nodes built from template:
// the node count plus the template's shape — every field except the
// identity (seed, recorder) Reset rewrites. Every node's shape equals the
// template's, so a built cluster's key (Cluster.ShapeKey) is this too.
func ShapeKey(n int, template server.Config) string {
	return fmt.Sprintf("cluster{%d %s}", n, template.ShapeKey())
}

// ShapeKey returns the cluster's pool key.
func (c *Cluster) ShapeKey() string { return ShapeKey(len(c.nodes), c.nodes[0].cfg) }

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
		srv, err := server.New(n.cfg)
		if err != nil {
			return err
		}
		n.srv = srv
	} else {
		n.srv.Reset(n.cfg.Seed, n.cfg.Recorder)
	}
	n.on = true
	n.srv.SetMode(c.mode)
	n.srv.GateUnloadedCores(0, false) // everything gated until placed
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
// under the two-level policy and returns the chosen node index. Across
// nodes it consolidates (pick); within the node it borrows, spreading
// threads across sockets balanced by free capacity (server.PlaceOnFree),
// except for sharing-heavy jobs, which stay on one socket when possible
// and otherwise fill the sockets in index order (the Fig. 14 lesson
// encoded in core.ShouldBorrow). Placement is a pure
// function of the cluster's occupancy: Submit is part of the
// bit-identical-at-any-worker-count contract. A job Submit refuses — no
// thread, no positive work, an id still live on some node, no node with
// room — leaves every node as it was.
func (c *Cluster) Submit(id string, d workload.Descriptor, threads int, workGInst float64) (int, error) {
	if threads < 1 {
		return -1, fmt.Errorf("cluster: job %s needs at least one thread", id)
	}
	if !(workGInst > 0) {
		return -1, fmt.Errorf("cluster: job %s has non-positive work %v", id, workGInst)
	}
	for _, n := range c.nodes {
		if _, ok := n.jobs[id]; ok {
			return -1, fmt.Errorf("cluster: job %s is already live on node %d", id, n.Index)
		}
	}
	node := c.pick(threads)
	if node == nil {
		return -1, fmt.Errorf("cluster: no node has %d free cores for job %s", threads, id)
	}
	if !node.on {
		if err := c.powerOn(node); err != nil {
			return -1, err
		}
	}
	placements, ok := server.PlaceOnFree(node.srv.FreeCores(nil), threads, !core.ShouldBorrow(d))
	if !ok {
		return -1, fmt.Errorf("cluster: node %d ran out of cores mid-placement", node.Index)
	}
	j, err := node.srv.Submit(id, d, placements, workGInst)
	if err != nil {
		return -1, err
	}
	node.jobs[id] = j
	node.occupied += len(placements)
	node.srv.GateUnloadedCores(0, false) // power-gate everything unused
	return node.Index, nil
}

// pick chooses the most-loaded powered node that still fits a
// threads-wide job, before waking a suspended one; nil when no node fits.
// One linear scan over the cached occupancy counts — no sort, no
// per-candidate walk over every core of every socket.
func (c *Cluster) pick(threads int) *Node {
	var bestOn *Node
	bestLoad := -1
	var firstOff *Node
	for _, n := range c.nodes {
		load := n.occupied
		if n.capacity()-load < threads {
			continue
		}
		if n.on {
			if load > bestLoad {
				bestOn, bestLoad = n, load
			}
		} else if firstOff == nil {
			firstOff = n
		}
	}
	if bestOn != nil {
		return bestOn
	}
	return firstOff
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
				n.srv.GateUnloadedCores(0, false)
			}
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown job %s", id)
}

// Settle advances every powered node by the given simulated seconds, one
// node after another, each through its own multi-rate loop
// (server.Settle). Between the cluster's own mutations — Submit and
// Release, which callers run between Settle calls — a node reads and
// writes only its own server, so its trajectory is a pure function of its
// seed and jobs, and those call boundaries are the only synchronization
// the cluster needs.
func (c *Cluster) Settle(seconds float64) {
	for _, n := range c.nodes {
		if n.on {
			n.srv.Settle(seconds)
		}
	}
}

// TotalPower returns the cluster draw: chips plus platform overheads and
// suspended-node floors.
func (c *Cluster) TotalPower() units.Watt {
	var total units.Watt
	for _, n := range c.nodes {
		if n.on {
			total += n.srv.TotalPower() + PlatformIdleW
		} else {
			total += SuspendedW
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
