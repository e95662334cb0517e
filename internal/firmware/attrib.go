package firmware

// Guardband attribution: every VoltageCommand records *why* it commanded
// what it did — the decision direction and the single input that bound
// the move — so any AGS decision in a run is explainable after the fact.
// The record is a handful of plain fields overwritten in place each tick
// (zero allocation); the chip layers read it back immediately after the
// command, count throttle and exhausted-margin ticks from it, and emit it
// as a KindAttrib event and a margin time-series sample.

// Decision is the direction the voltage loop chose on a tick.
type Decision uint8

const (
	// DecisionHold: sensed margin sat exactly on the calibration target
	// (the deadband); the set point did not move.
	DecisionHold Decision = iota
	// DecisionBoost: spare margin existed, the set point stepped down
	// (guardband reclaimed — the paper's efficiency direction).
	DecisionBoost
	// DecisionThrottle: margin was consumed below target, the set point
	// stepped back up to restore it.
	DecisionThrottle
	// DecisionFailSafe: a dead CPM or a fully gated chip forced the full
	// static guardband.
	DecisionFailSafe
	// DecisionFixed: the mode (Static, Overclock, Manual) pins the policy
	// voltage; CPM feedback is not consulted.
	DecisionFixed
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case DecisionHold:
		return "hold"
	case DecisionBoost:
		return "boost"
	case DecisionThrottle:
		return "throttle"
	case DecisionFailSafe:
		return "fail-safe"
	case DecisionFixed:
		return "fixed"
	}
	return "unknown"
}

// Bound names the input that limited (or fixed) the tick's move.
type Bound uint8

const (
	// BoundNone: the proportional law applied unclamped.
	BoundNone Bound = iota
	// BoundStepDown: the per-tick undervolt step cap (VRM slew safety).
	BoundStepDown
	// BoundStepUp: the per-tick raise cap.
	BoundStepUp
	// BoundFloor: the undervolt budget floor (authority minus the
	// load-proportional reserve, or the law's absolute minimum).
	BoundFloor
	// BoundCeil: the nominal-voltage ceiling.
	BoundCeil
	// BoundMode: the mode's fixed policy voltage.
	BoundMode
	// BoundDeadCPM: fail-safe because a CPM is known failed.
	BoundDeadCPM
	// BoundNoSensors: fail-safe because no CPM observation exists.
	BoundNoSensors
)

// String names the bound.
func (b Bound) String() string {
	switch b {
	case BoundNone:
		return "none"
	case BoundStepDown:
		return "step-down-cap"
	case BoundStepUp:
		return "step-up-cap"
	case BoundFloor:
		return "floor"
	case BoundCeil:
		return "ceiling"
	case BoundMode:
		return "mode"
	case BoundDeadCPM:
		return "dead-cpm"
	case BoundNoSensors:
		return "no-sensors"
	}
	return "unknown"
}

// Attribution is one tick's guardband decision record.
type Attribution struct {
	Decision Decision
	Bound    Bound
	// Sticky reports the sticky-window override engaged: the sticky worst
	// case, not the sample read, drove the decision.
	Sticky bool
	// WorstCPM is the sensed worst CPM position the decision consumed
	// (post sticky override); 0 in fixed/fail-safe paths.
	WorstCPM int
	// MarginBits is WorstCPM minus the calibration target — the sensed
	// spare margin in CPM bits (negative when consumed).
	MarginBits int
	// StepMV is the applied set-point move in millivolts (negative =
	// undervolt deeper), after every clamp.
	StepMV float64
}

// Pack encodes the discrete fields for an event payload (obs.KindAttrib's
// C): decision in bits 5.., bound in bits 1..4, sticky in bit 0. The
// numeric fields travel in the event's A (margin bits) and B (set point).
func (a Attribution) Pack() int64 {
	c := int64(a.Decision)<<5 | int64(a.Bound)<<1
	if a.Sticky {
		c |= 1
	}
	return c
}

// LastAttribution returns the record the most recent VoltageCommand
// wrote. Meaningless before the first tick (zero value).
func (c *Controller) LastAttribution() Attribution { return c.attrib }
