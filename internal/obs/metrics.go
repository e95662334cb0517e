package obs

// CounterID names one per-source monotonic counter. The IDs are fixed at
// compile time so the step loop indexes a flat array — no map lookups, no
// allocation, no string hashing on the hot path.
type CounterID uint8

const (
	// CMicroSteps counts 1 ms (or grid re-sync fragment) micro-steps.
	CMicroSteps CounterID = iota
	// CMacroSteps counts event-horizon macro-leaps.
	CMacroSteps
	// CFirmwareTicks counts 32 ms firmware ticks — each one reads the CPM
	// sticky window and may move the rail.
	CFirmwareTicks
	// CDidtEvents counts worst-case di/dt droop events fired by the noise
	// process.
	CDidtEvents
	// CDroopsAbsorbed counts droop events the DPLL fast slew fully covered.
	CDroopsAbsorbed
	// CDroopsLatched counts droop events that outran the reaction and
	// latched the sticky CPMs.
	CDroopsLatched
	// CMarginViolations counts core-steps with negative effective timing
	// margin.
	CMarginViolations
	// CThreadsCompleted counts threads that retired their work budget.
	CThreadsCompleted
	// CRailCommands counts firmware set-point moves actually sent to the
	// VRM rail.
	CRailCommands
	// CModeChanges counts guardband mode transitions (SetMode/SetManual).
	CModeChanges
	// CThrottleChanges counts issue-throttle adjustments.
	CThrottleChanges
	// CFastForwards counts sampled-lane fast-forward extrapolation spans.
	CFastForwards
	// CSampleSwitches counts sampling-governor fidelity switches
	// (detailed <-> fast-forward, both directions).
	CSampleSwitches
	// CRequestsServed counts traffic-generator requests admitted and
	// served to completion.
	CRequestsServed
	// CRequestsDropped counts traffic-generator requests shed at a full
	// per-node run queue.
	CRequestsDropped
	// CThrottleDecisions counts firmware ticks whose guardband decision
	// was firmware.DecisionThrottle: sensed margin was consumed below the
	// calibration target and the set point stepped back up.
	CThrottleDecisions
	// CExhaustedTicks counts firmware ticks that sensed margin below the
	// deadband (negative margin bits) under a CPM-driven decision, i.e.
	// any decision but firmware.DecisionFixed.
	CExhaustedTicks

	NumCounters int = iota
)

// counterMeta carries the Prometheus-facing name and help string.
var counterMeta = [NumCounters]struct{ name, help string }{
	CMicroSteps:        {"micro_steps", "1 ms micro-steps executed"},
	CMacroSteps:        {"macro_steps", "event-horizon macro-steps taken"},
	CFirmwareTicks:     {"firmware_ticks", "32 ms firmware ticks (CPM sticky-window reads)"},
	CDidtEvents:        {"didt_events", "worst-case di/dt droop events fired"},
	CDroopsAbsorbed:    {"droops_absorbed", "droop events fully absorbed by DPLL fast slew"},
	CDroopsLatched:     {"droops_latched", "droop events that latched the sticky CPMs"},
	CMarginViolations:  {"margin_violations", "core-steps with negative effective timing margin"},
	CThreadsCompleted:  {"threads_completed", "threads that retired their work budget"},
	CRailCommands:      {"rail_commands", "VRM set-point moves commanded by firmware"},
	CModeChanges:       {"mode_changes", "guardband mode transitions"},
	CThrottleChanges:   {"throttle_changes", "issue-throttle adjustments"},
	CFastForwards:      {"fast_forwards", "sampled-lane fast-forward spans taken"},
	CSampleSwitches:    {"sample_switches", "sampling-governor fidelity switches"},
	CRequestsServed:    {"requests_served", "traffic requests admitted and served"},
	CRequestsDropped:   {"requests_dropped", "traffic requests shed at a full run queue"},
	CThrottleDecisions: {"throttle_decisions", "firmware ticks whose guardband decision stepped the rail back up"},
	CExhaustedTicks:    {"exhausted_ticks", "firmware ticks that sensed CPM margin below the deadband"},
}

// CounterName returns the exposition name of a counter.
func CounterName(c CounterID) string { return counterMeta[c].name }

// GaugeID names one per-source last-value gauge, refreshed every step.
type GaugeID uint8

const (
	// GTimeSec is the source's simulated time.
	GTimeSec GaugeID = iota
	// GRailMV is the VRM output voltage.
	GRailMV
	// GSetPointMV is the commanded rail set point.
	GSetPointMV
	// GPowerW is the last-step chip power.
	GPowerW
	// GTempC is the package temperature.
	GTempC
	// GFreqMHz is core 0's clock frequency.
	GFreqMHz

	NumGauges int = iota
)

var gaugeMeta = [NumGauges]struct{ name, help string }{
	GTimeSec:    {"sim_time_seconds", "simulated seconds elapsed"},
	GRailMV:     {"rail_mv", "VRM output voltage in millivolts"},
	GSetPointMV: {"setpoint_mv", "commanded rail set point in millivolts"},
	GPowerW:     {"power_watts", "last-step chip power"},
	GTempC:      {"temp_celsius", "package temperature"},
	GFreqMHz:    {"freq0_mhz", "core 0 clock frequency"},
}

// HistID names one fixed-bucket histogram, shared across a recorder's
// sources and summed across shards on read.
type HistID uint8

const (
	// HLeapSec distributes macro-leap lengths in seconds.
	HLeapSec HistID = iota
	// HDroopDepthMV distributes worst-case droop event depths.
	HDroopDepthMV
	// HWindowMinCPM distributes the firmware's per-window minimum sticky
	// CPM readings (the paper's Fig. 9 distribution, live).
	HWindowMinCPM
	// HFastForwardSec distributes sampled-lane fast-forward span lengths.
	HFastForwardSec
	// HRequestLatencySec distributes request sojourn times (queue wait plus
	// service) from the traffic generator. The log-spaced buckets cover
	// interactive-serving latencies from milliseconds to saturation, and
	// p50/p95/p99 are read back by in-bucket interpolation — the fixed
	// bounds keep percentile extraction deterministic across worker counts
	// and stepping lanes.
	HRequestLatencySec

	NumHists int = iota
)

var histMeta = [NumHists]struct {
	name, help string
	buckets    []float64
}{
	HLeapSec: {"macro_leap_seconds", "event-horizon macro-leap lengths",
		[]float64{0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128}},
	HDroopDepthMV: {"droop_depth_mv", "worst-case di/dt event depths",
		[]float64{10, 15, 20, 25, 30, 35, 40, 45}},
	HWindowMinCPM: {"window_min_cpm", "per-window minimum sticky CPM readings",
		[]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	HFastForwardSec: {"fast_forward_seconds", "sampled-lane fast-forward span lengths",
		[]float64{0.064, 0.128, 0.256, 0.512, 1.024, 2.048, 4.096, 8.192}},
	HRequestLatencySec: {"request_latency_seconds", "traffic request sojourn times",
		[]float64{0.0025, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.28, 2.56, 5.12, 10.24, 20.48}},
}

// HistBuckets returns the fixed upper bounds of a histogram (a +Inf bin is
// implied above the last bound). Callers that keep private per-worker
// counts in the same geometry (internal/traffic) read the bounds from here
// so the obs exposition and their own percentile extraction can never
// disagree.
func HistBuckets(h HistID) []float64 { return histMeta[h].buckets }
