package core

import (
	"fmt"

	"agsim/internal/server"
	"agsim/internal/workload"
)

// Borrowing is the loadline-borrowing scheduler (paper §5.1): it plans
// thread placements that balance active cores across sockets and decides
// which cores to power-gate, so that every socket keeps its current — and
// therefore its passive voltage drop — as low as possible.
//
// The paper's scoping rule is encoded in PlanJob: borrowing applies
// *within* one server, where memory, storage and network stay powered
// either way. Consolidation across servers (to power whole machines down)
// remains the cluster scheduler's job; loadline borrowing then spreads
// whatever lands on each server (§5.1.1, final paragraph).
type Borrowing struct {
	// Sockets and CoresPerSocket describe the target server.
	Sockets, CoresPerSocket int

	// OnCoresTotal is how many cores the operator keeps turned on for
	// responsiveness (the paper keeps 8 of 16 for a 50% utilization
	// ceiling); the rest are power-gated until needed.
	OnCoresTotal int
}

// NewBorrowing returns a scheduler for the given server shape keeping
// onCoresTotal cores powered.
func NewBorrowing(sockets, coresPerSocket, onCoresTotal int) (*Borrowing, error) {
	if sockets < 1 || coresPerSocket < 1 {
		return nil, fmt.Errorf("core: bad server shape %dx%d", sockets, coresPerSocket)
	}
	if onCoresTotal < 0 || onCoresTotal > sockets*coresPerSocket {
		return nil, fmt.Errorf("core: onCoresTotal %d out of range", onCoresTotal)
	}
	return &Borrowing{Sockets: sockets, CoresPerSocket: coresPerSocket, OnCoresTotal: onCoresTotal}, nil
}

// Plan returns balanced placements for n threads
// (server.BorrowedPlacements: thread i goes to socket i mod Sockets,
// filling cores in order). It panics if n exceeds the machine, which is an
// admission-control bug upstream of the scheduler.
func (b *Borrowing) Plan(n int) []server.Placement {
	if n < 1 || n > b.Sockets*b.CoresPerSocket {
		panic(fmt.Sprintf("core: cannot place %d threads on %dx%d", n, b.Sockets, b.CoresPerSocket))
	}
	return server.BorrowedPlacements(n, b.Sockets)
}

// KeepOn returns the per-socket count of unloaded cores to keep merely
// idle (rather than gated) so that OnCoresTotal cores stay powered given n
// placed threads.
func (b *Borrowing) KeepOn(n int) []int {
	keep := make([]int, b.Sockets)
	remaining := b.OnCoresTotal - n
	if remaining < 0 {
		remaining = 0
	}
	for si := 0; remaining > 0; si = (si + 1) % b.Sockets {
		loaded := b.loadedOn(n, si)
		if keep[si]+loaded < b.CoresPerSocket {
			keep[si]++
			remaining--
		} else if b.fullEverywhere(n, keep) {
			break
		}
	}
	return keep
}

func (b *Borrowing) loadedOn(n, socket int) int {
	count := n / b.Sockets
	if socket < n%b.Sockets {
		count++
	}
	return count
}

func (b *Borrowing) fullEverywhere(n int, keep []int) bool {
	for si := range keep {
		if keep[si]+b.loadedOn(n, si) < b.CoresPerSocket {
			return false
		}
	}
	return true
}

// Apply submits a job under the borrowing plan and gates the remaining
// cores, returning the created job.
func (b *Borrowing) Apply(s *server.Server, id string, d workload.Descriptor, n int, workGInst float64) (*server.Job, error) {
	j, err := s.Submit(id, d, b.Plan(n), workGInst)
	if err != nil {
		return nil, err
	}
	s.GateUnloadedCores(b.KeepOn(n)...)
	return j, nil
}

// ShouldBorrow encodes the paper's applicability rule for a candidate
// migration: borrowing pays off within a server when the job is not
// dominated by cross-socket sharing. A job whose threads communicate
// heavily (lu_ncb, radiosity) loses more to inter-chip traffic than the
// loadline reclaims, so such jobs stay consolidated.
func ShouldBorrow(d workload.Descriptor) bool {
	// The breakeven observed in the Fig. 14 reproduction: jobs with
	// sharing intensity beyond ~0.6 regress in energy when split.
	return d.Sharing < 0.6
}
