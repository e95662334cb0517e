// Package core implements Adaptive Guardband Scheduling (AGS), the paper's
// contribution (§5): system-level scheduling that compensates for adaptive
// guardbanding's load-dependent inefficiency.
//
// The paper's two enterprise scenarios:
//
//   - Loadline borrowing (§5.1): when the system is not fully utilized,
//     balance load across the server's sockets instead of consolidating
//     it, and power-gate the freed cores. Each socket then draws less
//     current through its own loadline, leaving the firmware more
//     undervolt budget on every chip. The schedule is the server's rule
//     (server.PlaceOnFree, server.GateUnloadedCores); ShouldBorrow is the
//     gate that keeps sharing-heavy jobs together; AGS, the Rebalancer
//     and the cluster layer apply it.
//
//   - AdaptiveMapper (§5.2, "adaptive mapping"): when a critical
//     latency-sensitive application shares the chip with co-runners, its
//     frequency — and hence its QoS — depends on total chip activity.
//     The mapper predicts the frequency of hypothetical colocations with a
//     MIPS-based linear model (Fig. 16) and swaps malicious co-runners out
//     before they break the SLA (Fig. 18's feedback loop).
//
// The schedulers operate strictly through middleware-visible interfaces:
// performance counters (MIPS), telemetry (frequency, QoS logs), affinity
// (placement) and core gating — nothing the real POWER7+ stack would not
// expose.
package core
