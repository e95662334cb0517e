package core

import "agsim/internal/workload"

// ShouldBorrow encodes the paper's applicability rule for loadline
// borrowing (§5.1): borrowing pays off within a server when the job is not
// dominated by cross-socket sharing. A job whose threads communicate
// heavily (lu_ncb, radiosity) loses more to inter-chip traffic than the
// loadline reclaims, so such jobs stay consolidated. The schedule itself —
// where threads go and which idle cores stay powered — is the server's
// rule (server.PlaceOnFree and server.GateUnloadedCores); this is the gate
// a scheduler passes to PlaceOnFree as its together flag.
func ShouldBorrow(d workload.Descriptor) bool {
	// The breakeven observed in the Fig. 14 reproduction: jobs with
	// sharing intensity beyond ~0.6 regress in energy when split.
	return d.Sharing < 0.6
}
