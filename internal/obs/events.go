package obs

import (
	"fmt"
	"math"
	"strings"
)

// Kind tags one structured event record.
type Kind uint8

const (
	// KindDroop: a worst-case di/dt event (or several in one step) fired.
	// Core -1 (the noise process is chip-wide); A = worst event depth mV,
	// B = typical ripple mV, C = events this step.
	KindDroop Kind = 1 + iota
	// KindWindow: the firmware tick read the CPM sticky window. Core -1;
	// A = minimum sample-mode CPM, B = minimum sticky CPM (cpm.MaxValue
	// when no core is clocked), C = 1 when any CPM is dead.
	KindWindow
	// KindThrottle: a core's issue throttle moved. Core = index;
	// A = new fraction, B = old fraction.
	KindThrottle
	// KindDVFS: an operating-point decision. Core -1. A firmware rail move
	// has A = new set point mV, B = old set point mV, C = -1; a mode
	// transition has C = the firmware.Mode value (A, B zero); a manual
	// point has A = voltage mV, B = frequency MHz and C = the Manual mode.
	KindDVFS
	// KindLeap: the multi-rate engine took a macro-step. Core -1;
	// A = leap seconds, C = the Reason bounding the horizon. TimeUS stamps
	// the leap's end.
	KindLeap
	// KindThreadDone: a thread retired its work budget. Core = index of
	// the core it ran on.
	KindThreadDone
	// KindSampleMode: the sampling governor switched stepping fidelity.
	// Core -1; A = the governor's relative CI width at the switch (its
	// evidence), B = the phase-signature distance from the previous
	// detailed window, C = 1 entering fast-forward, 0 dropping back to
	// detailed. TimeUS stamps the switch.
	KindSampleMode
	// KindAttrib: the guardband-attribution record one firmware tick
	// produced — why the controller boosted, held, or backed off, and
	// which input bound the move. Core -1; A = sensed margin in CPM bits
	// (worst window CPM minus the calibration target), B = the commanded
	// set point mV, C = the firmware.Attribution packed via its Pack
	// method (decision, bounding input, sticky-override flag).
	KindAttrib
	// KindHealth: a health detector fired when the log was evaluated.
	// Core -1; A = the observed value, B = the detector's threshold,
	// C = packed detector id (low 8 bits) and status (next 8 bits).
	// TimeUS stamps the end of the observation span.
	KindHealth
)

// String names the kind for traces and tables.
func (k Kind) String() string {
	switch k {
	case KindDroop:
		return "droop"
	case KindWindow:
		return "cpm-window"
	case KindThrottle:
		return "throttle"
	case KindDVFS:
		return "dvfs"
	case KindLeap:
		return "macro-leap"
	case KindThreadDone:
		return "thread-done"
	case KindSampleMode:
		return "sample-mode"
	case KindAttrib:
		return "guardband-attrib"
	case KindHealth:
		return "health"
	}
	return "unknown"
}

// ParseKind is the inverse of Kind.String: it returns the kind String
// names name, or an error listing every kind's name.
func ParseKind(name string) (Kind, error) {
	var names []string
	// The kinds run from KindDroop without gaps, so the first value
	// String does not name ends them.
	for k := KindDroop; k.String() != "unknown"; k++ {
		if k.String() == name {
			return k, nil
		}
		names = append(names, k.String())
	}
	return 0, fmt.Errorf("obs: unknown event kind %q (want one of %s)", name, strings.Join(names, ", "))
}

// Reason says which event horizon bounded a macro-leap (KindLeap's C).
type Reason uint8

const (
	// ReasonCap: the caller's maxSec bound, not a simulation event.
	ReasonCap Reason = iota
	// ReasonTick: one micro-step short of the 32 ms firmware tick.
	ReasonTick
	// ReasonCompletion: a thread's work budget runs out.
	ReasonCompletion
	// ReasonPhaseWalk: a thread's stochastic phase-walk update.
	ReasonPhaseWalk
	// ReasonDidtEvent: the next pre-drawn worst-case di/dt event.
	ReasonDidtEvent
	// ReasonWobble: the ripple wobble redraw boundary.
	ReasonWobble
	// ReasonExternal: a server-wide minimum shorter than this chip's own
	// horizon (another socket's event bound the synchronized leap).
	ReasonExternal
)

// String names the reason for traces and tables.
func (r Reason) String() string {
	switch r {
	case ReasonCap:
		return "cap"
	case ReasonTick:
		return "tick"
	case ReasonCompletion:
		return "completion"
	case ReasonPhaseWalk:
		return "phase-walk"
	case ReasonDidtEvent:
		return "didt-event"
	case ReasonWobble:
		return "wobble"
	case ReasonExternal:
		return "external"
	}
	return "unknown"
}

// HealthDetector identifies which watchdog produced a KindHealth event
// (packed into C). Defined here rather than in internal/health so the
// exporters can name firings without importing the detector logic.
type HealthDetector uint8

const (
	// DetDroopStorm: di/dt droop rate far above the calibration regime.
	DetDroopStorm HealthDetector = iota
	// DetThrottleResidency: the controller spent too much of its ticks
	// backing off (restoring margin) instead of holding or boosting.
	DetThrottleResidency
	// DetMarginExhaustion: sensed CPM margin pinned at/below the deadband
	// — the guardband is spent and the controller has nothing to give.
	DetMarginExhaustion
	// DetSLOBreach: a serving node missed its p99 latency target or shed
	// requests.
	DetSLOBreach
)

// String names the detector for traces and tables.
func (d HealthDetector) String() string {
	switch d {
	case DetDroopStorm:
		return "droop-storm"
	case DetThrottleResidency:
		return "throttle-residency"
	case DetMarginExhaustion:
		return "margin-exhaustion"
	case DetSLOBreach:
		return "slo-breach"
	}
	return "unknown"
}

// HealthStatus grades a KindHealth firing.
type HealthStatus uint8

const (
	HealthOK HealthStatus = iota
	HealthWarn
	HealthCritical
)

// String names the status.
func (s HealthStatus) String() string {
	switch s {
	case HealthOK:
		return "ok"
	case HealthWarn:
		return "warn"
	case HealthCritical:
		return "critical"
	}
	return "unknown"
}

// PackHealth encodes a detector and status into a KindHealth C payload.
func PackHealth(d HealthDetector, s HealthStatus) int64 {
	return int64(d) | int64(s)<<8
}

// UnpackHealth decodes a KindHealth C payload.
func UnpackHealth(c int64) (HealthDetector, HealthStatus) {
	return HealthDetector(c & 0xff), HealthStatus(c >> 8 & 0xff)
}

// HealthDetectorName names the detector inside a packed C payload.
func HealthDetectorName(c int64) string {
	d, _ := UnpackHealth(c)
	return d.String()
}

// Event is one fixed-size structured record. Payload semantics are per
// Kind (see the Kind constants). TimeUS is microseconds of simulated time,
// integral so that the macro and exact stepping lanes — whose float time
// accumulators differ by ulps after millions of steps — stamp physical
// events identically: everything except KindLeap fires inside grid-aligned
// micro-steps whose boundaries are exact microsecond multiples in both
// lanes.
type Event struct {
	TimeUS int64
	Kind   Kind
	Source int32 // index into the recorder's sources; -1 if none
	Core   int32 // core index, -1 for chip-wide records
	A, B   float64
	C      int64
}

// StampUS converts simulated seconds to the event timestamp grid.
func StampUS(tSec float64) int64 { return int64(math.Round(tSec * 1e6)) }
