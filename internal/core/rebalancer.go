package core

import "agsim/internal/server"

// Rebalancer is the runtime form of loadline borrowing: the paper emulates
// it with Linux taskset affinity on a live system (§5.1.2), moving threads
// so active cores stay balanced across sockets. The rebalancer watches a
// server, and whenever socket load is imbalanced it migrates the best
// candidate job toward balance — skipping sharing-heavy jobs, which lose
// more to cross-socket traffic than the loadline reclaims. After each
// migration it re-applies the caller's gating rule
// (server.GateUnloadedCores), so the cores a job vacates and the gated
// cores it lands on leave the server with the powered count it had.
type Rebalancer struct {
	// IntervalSec is how often the rebalancer evaluates the schedule. The
	// effects it chases are long-term (passive drop), so seconds-scale
	// intervals suffice and keep migration costs negligible.
	IntervalSec float64

	// on and pack are the GateUnloadedCores arguments the caller gates
	// the server with.
	on   int
	pack bool

	since      float64
	migrations int
}

// NewRebalancer returns a rebalancer with the default 1 s evaluation
// interval that keeps on cores powered, packed when pack, as
// GateUnloadedCores(on, pack) does.
func NewRebalancer(on int, pack bool) *Rebalancer {
	return &Rebalancer{IntervalSec: 1, on: on, pack: pack}
}

// Migrations returns how many job migrations the rebalancer has performed.
func (r *Rebalancer) Migrations() int { return r.migrations }

// Tick advances the rebalancer's clock by dtSec and, when an evaluation is
// due, performs at most one migration and re-gates the server. It returns
// whether a migration happened.
func (r *Rebalancer) Tick(s *server.Server, dtSec float64) bool {
	r.since += dtSec
	if r.since < r.IntervalSec {
		return false
	}
	r.since = 0
	if !r.rebalance(s) {
		return false
	}
	s.GateUnloadedCores(r.on, r.pack)
	return true
}

// rebalance finds the most- and least-loaded sockets and, if they differ by
// more than one active core, migrates a movable job to balanced placements.
func (r *Rebalancer) rebalance(s *server.Server) bool {
	loads := make([]int, s.Sockets())
	for si := range loads {
		loads[si] = s.Chip(si).ActiveCores()
	}
	max, min := 0, 0
	for si, l := range loads {
		if l > loads[max] {
			max = si
		}
		if l < loads[min] {
			min = si
		}
	}
	if loads[max]-loads[min] <= 1 {
		return false
	}

	j := r.pickMovable(s, max)
	if j == nil {
		return false
	}
	// Spread j across sockets, treating its current cores as free.
	placements, ok := server.PlaceOnFree(s.FreeCores(j), len(j.Threads), false)
	if !ok {
		return false
	}
	if err := s.Migrate(j, placements); err != nil {
		// Another job occupies a computed slot (racing shapes); skip this
		// round rather than failing the caller.
		return false
	}
	r.migrations++
	return true
}

// pickMovable returns the largest borrowing-eligible job with threads on
// the overloaded socket.
func (r *Rebalancer) pickMovable(s *server.Server, overloaded int) *server.Job {
	var best *server.Job
	for _, j := range s.Jobs() {
		if !ShouldBorrow(j.Desc) {
			continue
		}
		onSocket := 0
		for _, p := range j.Placements {
			if p.Socket == overloaded {
				onSocket++
			}
		}
		if onSocket == 0 {
			continue
		}
		if best == nil || len(j.Threads) > len(best.Threads) {
			best = j
		}
	}
	return best
}
