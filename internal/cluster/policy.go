package cluster

import (
	"fmt"

	"agsim/internal/core"
	"agsim/internal/server"
	"agsim/internal/workload"
)

// Policy is the two-level placement seam: which node takes a job, and
// which cores inside that node. The cluster owns the mechanics around a
// decision — powering nodes on, gating unused cores, occupancy accounting
// — so a policy is pure selection and alternative schedulers (THEAS-style
// queue-aware placement, load spreading) plug in without forking cluster
// code. Policies must be deterministic functions of the views they are
// given: Submit is part of the bit-identical-at-any-worker-count contract.
type Policy interface {
	// PickNode returns the node a threads-wide job should land on, or nil
	// when no node fits. The cluster powers the node on afterwards if it
	// is suspended.
	PickNode(c *Cluster, threads int) *Node
	// PlaceWithin selects threads cores on the picked node. free lists the
	// unoccupied core indices per socket (the cluster computes it after
	// power-on); policies consume it freely — it is theirs.
	PlaceWithin(n *Node, free [][]int, d workload.Descriptor, threads int) ([]server.Placement, error)
}

// SetPolicy installs a placement policy for subsequent Submits; nil
// restores the default ConsolidateFirst. Changing policy mid-run only
// affects future placements — existing jobs stay where they are.
func (c *Cluster) SetPolicy(p Policy) {
	if p == nil {
		p = ConsolidateFirst{}
	}
	c.policy = p
}

// ConsolidateFirst is the default two-level AGS policy (§5.1.1):
// consolidate across nodes — fill the most-loaded powered node before
// waking a suspended one — and borrow within a node, spreading threads
// across sockets balanced by free capacity, except for sharing-heavy jobs
// which stay on one socket when possible (the Fig. 14 lesson encoded in
// core.ShouldBorrow).
type ConsolidateFirst struct{}

// PickNode chooses the most-loaded powered node that still fits, before
// waking a suspended one. One linear scan over the cached occupancy counts
// — no sort, no per-candidate walk over every core of every socket.
func (ConsolidateFirst) PickNode(c *Cluster, threads int) *Node {
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

// PlaceWithin selects free cores balanced across the node's sockets —
// loadline borrowing with respect to existing occupancy
// (server.PlaceOnFree). Sharing-heavy jobs stay on one socket when
// possible.
func (ConsolidateFirst) PlaceWithin(n *Node, free [][]int, d workload.Descriptor, threads int) ([]server.Placement, error) {
	ps, ok := server.PlaceOnFree(free, threads, !core.ShouldBorrow(d))
	if !ok {
		return nil, fmt.Errorf("cluster: node %d ran out of cores mid-placement", n.Index)
	}
	return ps, nil
}

// QueueAware is a THEAS-style placement policy: among powered nodes that
// fit, pick the one with the shallowest run queue (ties break to the lower
// node index), waking a suspended node only when nothing powered fits.
// Depth supplies the per-node queue signal — typically a closure over
// traffic.Generator.QueueDepth — so the policy composes with any request
// layer without the cluster knowing about it. Within the node it places
// like ConsolidateFirst unless Within overrides.
type QueueAware struct {
	// Depth reports node i's current run-queue depth. Nil means every
	// queue reads as empty, reducing PickNode to least-index powered-fit.
	Depth func(node int) int
	// Within, when non-nil, overrides the intra-node placement.
	Within Policy
}

// PickNode chooses the shallowest-queued powered node that fits.
func (q QueueAware) PickNode(c *Cluster, threads int) *Node {
	var bestOn *Node
	bestDepth := 0
	var firstOff *Node
	for _, n := range c.nodes {
		if n.capacity()-n.occupied < threads {
			continue
		}
		if !n.on {
			if firstOff == nil {
				firstOff = n
			}
			continue
		}
		depth := 0
		if q.Depth != nil {
			depth = q.Depth(n.Index)
		}
		if bestOn == nil || depth < bestDepth {
			bestOn, bestDepth = n, depth
		}
	}
	if bestOn != nil {
		return bestOn
	}
	return firstOff
}

// PlaceWithin delegates to Within, defaulting to ConsolidateFirst.
func (q QueueAware) PlaceWithin(n *Node, free [][]int, d workload.Descriptor, threads int) ([]server.Placement, error) {
	if q.Within != nil {
		return q.Within.PlaceWithin(n, free, d, threads)
	}
	return ConsolidateFirst{}.PlaceWithin(n, free, d, threads)
}
