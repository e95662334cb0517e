// Package firmware implements the EnergyScale-style guardband controller of
// the POWER7+ (paper §2.2): the slow control loop that, every 32 ms,
// converts the timing margin sensed by the CPM/DPLL hardware into either a
// lower supply voltage (undervolting mode) or leaves the voltage nominal so
// the DPLLs can overclock (frequency-boosting mode).
//
// The controller is deliberately a pure decision component: it reads
// sensor summaries and emits commands, never touching chip internals. That
// is also how the real firmware is layered — it observes CPM-DPLL behaviour
// through registers and commands the VRM — and it is what lets the fail-safe
// tests drive the controller with lying sensors.
package firmware

import (
	"fmt"

	"agsim/internal/cpm"
	"agsim/internal/units"
	"agsim/internal/vf"
)

// Mode selects the guardband policy.
type Mode int

// Guardband operating modes. Hooks in the paper's firmware let the authors
// place the system in any of these (§3.1).
const (
	// Static applies the traditional fixed guardband: nominal voltage,
	// nominal frequency, CPM feedback unused.
	Static Mode = iota
	// Undervolt holds the target frequency and trims the supply down until
	// the worst CPM sits at its calibration target (power-saving mode).
	Undervolt
	// Overclock holds nominal voltage and lets each core's DPLL climb
	// until its worst CPM sits at the calibration target
	// (frequency-boosting mode).
	Overclock
	// Manual disables adaptive guardbanding and control entirely; voltage
	// and frequency are whatever the experimenter set. This is the
	// characterization mode of paper §4.1 where CPM outputs "float".
	Manual
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Static:
		return "static"
	case Undervolt:
		return "undervolt"
	case Overclock:
		return "overclock"
	case Manual:
		return "manual"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode is Mode.String's inverse for the modes a run selects by name:
// static, undervolt and overclock. Manual, the characterization mode
// experiments set directly, is refused like an unknown name.
func ParseMode(name string) (Mode, error) {
	for _, m := range []Mode{Static, Undervolt, Overclock} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("mode %q is not static, undervolt or overclock", name)
}

// TickSeconds is the firmware loop interval; AMESTER's 32 ms minimum
// sampling interval is bound to the same service-processor cadence.
const TickSeconds = 0.032

// Controller is the voltage-loop decision logic.
type Controller struct {
	// law is the chip's immutable V–f law, set by Reset. It is
	// configuration, not state, so the snapshot codec skips it: a restore
	// target was built with the same law.
	law  vf.Law `snapshot:"-"`
	mode Mode

	// GainDown scales how much of the sensed excess margin is removed per
	// tick when undervolting; below 1 gives first-order settling without
	// overshoot.
	GainDown float64
	// MaxStepDownMV bounds the per-tick undervolt step (VRM VID step
	// granularity and slew safety).
	MaxStepDownMV float64
	// MaxStepUpMV bounds the per-tick voltage raise; raising is allowed to
	// be much faster than lowering because raising is the safe direction.
	MaxStepUpMV float64

	// AuthorityMV and LoadReserveMilliohm define the firmware's undervolt
	// budget: at rail current I the set point may go at most
	// AuthorityMV - LoadReserveMilliohm*I below nominal. The
	// current-proportional term is the reserve the firmware keeps for
	// load-insertion/release transients its sensors cannot catch; it is
	// what produces the paper's measured law that undervolt falls one
	// millivolt per millivolt of loadline+IR drop (Fig. 10b) and the
	// undervolt-vs-core-count curves of Fig. 12a.
	AuthorityMV         float64
	LoadReserveMilliohm float64

	ticks int

	// attrib is the last tick's guardband-attribution record (attrib.go),
	// overwritten in place by every VoltageCommand.
	attrib Attribution
}

// NewController creates a controller in Static mode with the calibrated
// undervolt budget (DESIGN.md §4).
func NewController(law vf.Law) *Controller {
	c := &Controller{}
	c.Reset(law)
	return c
}

// Reset rewinds the controller to the state NewController(law) produces:
// Static mode, calibrated gains and budget, zero tick count. Arena-pooled
// chips call it instead of reallocating; it also discards any ablation
// overrides (e.g. LoadReserveMilliohm sweeps) a previous user applied.
func (c *Controller) Reset(law vf.Law) {
	*c = Controller{
		law:                 law,
		mode:                Static,
		GainDown:            0.5,
		MaxStepDownMV:       8,
		MaxStepUpMV:         50,
		AuthorityMV:         130,
		LoadReserveMilliohm: 1.08,
	}
}

// Mode returns the active mode.
func (c *Controller) Mode() Mode { return c.mode }

// SetMode switches policy.
func (c *Controller) SetMode(m Mode) { c.mode = m }

// Ticks returns how many voltage-loop decisions have been made.
func (c *Controller) Ticks() int { return c.ticks }

// CountFixedTicks counts n more ticks that repeat the last VoltageCommand
// at the set point it saw: each returns the same command and writes the
// same attribution record, so only the tick count moves. A fast-forward
// settles a run of such ticks with one call. It panics unless
// RepeatsLastTick holds.
func (c *Controller) CountFixedTicks(n int) {
	if n < 0 || !c.RepeatsLastTick() {
		panic(fmt.Sprintf("firmware: %d fixed ticks counted in %v mode after a %v/%v tick",
			n, c.mode, c.attrib.Decision, c.attrib.Bound))
	}
	c.ticks += n
}

// RepeatsLastTick reports whether the next ticks repeat the last command
// for CountFixedTicks. In Static, Overclock and Manual mode the command
// ignores the reading, so every tick repeats. In Undervolt only an
// unclamped hold repeats, and only for a reading that holds again: the
// worst CPM on the calibration target and no sticky read below it, at the
// same sensed current. A fresh controller has made no hold, though its
// zero record reads hold and no bound.
func (c *Controller) RepeatsLastTick() bool {
	return c.mode != Undervolt || c.attrib == unclampedHold
}

// unclampedHold is the record an Undervolt hold writes when no clamp
// engages: the worst CPM on the calibration target and no step.
var unclampedHold = Attribution{Decision: DecisionHold, Bound: BoundNone, WorstCPM: cpm.CalibTarget}

// MarginReading is the summary of chip margin state the controller consumes
// each tick.
type MarginReading struct {
	// MinCPM is the worst (smallest) sample-mode CPM output across the
	// chip right now.
	MinCPM int
	// MinStickyCPM is the worst sticky-mode output over the past window,
	// capturing droops the sample read missed.
	MinStickyCPM int
	// MVPerBit is the voltage significance of one CPM position for the
	// worst sensor at the current frequency.
	MVPerBit float64
	// AnyDead reports whether any CPM is known failed; the controller must
	// then refuse to hold less than the static guardband.
	AnyDead bool
	// NoSensors reports that no CPM observation exists at all (every core
	// power-gated: a gated core's CPMs are off). The controller must hold
	// nominal — it has no margin data to act on.
	NoSensors bool
	// CurrentA is the rail current sensor reading, consumed by the
	// load-proportional reserve.
	CurrentA float64
}

// VoltageCommand computes the next VRM set point in Undervolt mode given
// the current set point and sensed margin. In any other mode it returns the
// mode's fixed policy voltage.
//
// The undervolt law mirrors the paper's description: the hardware CPM-DPLL
// loop would run fast; the firmware watches it over 32 ms and trims voltage
// so the worst CPM converges to its calibration target. Reading MinCPM
// above target means spare margin exists and voltage steps down
// proportionally; reading below target (a droop ate into margin) steps
// voltage back up, fast.
func (c *Controller) VoltageCommand(current units.Millivolt, r MarginReading) units.Millivolt {
	c.ticks++
	switch c.mode {
	case Static, Overclock:
		c.attrib = Attribution{Decision: DecisionFixed, Bound: BoundMode,
			StepMV: float64(c.law.VNom - current)}
		return c.law.VNom
	case Manual:
		c.attrib = Attribution{Decision: DecisionFixed, Bound: BoundMode}
		return current
	case Undervolt:
		// fallthrough to the loop below
	default:
		panic(fmt.Sprintf("firmware: unknown mode %d", int(c.mode)))
	}

	if r.AnyDead || r.NoSensors {
		// Fail safe: a dead CPM reads 0 and cannot be trusted to report
		// margin, and a fully gated chip reports nothing at all. Return
		// to the full static guardband.
		bound := BoundDeadCPM
		if r.NoSensors {
			bound = BoundNoSensors
		}
		c.attrib = Attribution{Decision: DecisionFailSafe, Bound: bound,
			StepMV: float64(c.law.VNom - current)}
		return c.law.VNom
	}
	if r.MVPerBit <= 0 {
		panic(fmt.Sprintf("firmware: non-positive MVPerBit %v", r.MVPerBit))
	}
	if r.CurrentA < 0 {
		panic(fmt.Sprintf("firmware: negative sensed current %v", r.CurrentA))
	}

	worst := r.MinCPM
	sticky := false
	if r.MinStickyCPM < worst {
		// A droop during the window consumed more margin than the sample
		// read shows; trust the sticky worst case for the safety check
		// but only react to it when it is below target.
		if r.MinStickyCPM < cpm.CalibTarget {
			worst = r.MinStickyCPM
			sticky = true
		}
	}

	errBits := worst - cpm.CalibTarget
	next := current
	decision, bound := DecisionHold, BoundNone
	switch {
	case errBits > 0:
		decision = DecisionBoost
		step := c.GainDown * float64(errBits) * r.MVPerBit
		if step > c.MaxStepDownMV {
			step = c.MaxStepDownMV
			bound = BoundStepDown
		}
		next = current - units.Millivolt(step)
	case errBits < 0:
		decision = DecisionThrottle
		step := float64(-errBits) * r.MVPerBit
		if step > c.MaxStepUpMV {
			step = c.MaxStepUpMV
			bound = BoundStepUp
		}
		next = current + units.Millivolt(step)
	}
	clamped := units.ClampMV(next, c.Floor(r.CurrentA), c.law.VNom)
	// The final clamp, when it engages, is the binding constraint.
	if clamped > next {
		bound = BoundFloor
	} else if clamped < next {
		bound = BoundCeil
	}
	c.attrib = Attribution{
		Decision:   decision,
		Bound:      bound,
		Sticky:     sticky,
		WorstCPM:   worst,
		MarginBits: errBits,
		StepMV:     float64(clamped - current),
	}
	return clamped
}

// Floor returns the lowest set point the controller may command at the
// sensed rail current: the larger of the law's absolute minimum and the
// load-reserve budget.
func (c *Controller) Floor(currentA float64) units.Millivolt {
	budget := c.AuthorityMV - c.LoadReserveMilliohm*currentA
	if budget < 0 {
		budget = 0
	}
	floor := c.law.VNom - units.Millivolt(budget)
	if floor < c.law.VMin {
		floor = c.law.VMin
	}
	return floor
}

// FrequencyTarget returns the per-core frequency policy for the mode:
// the fixed target in Static and Undervolt, the law ceiling in Overclock
// (the DPLL's margin tracking provides the real limit), and zero in Manual
// (meaning "leave it alone").
func (c *Controller) FrequencyTarget() units.Megahertz {
	switch c.mode {
	case Static, Undervolt:
		return c.law.FNom
	case Overclock:
		return c.law.FCeil
	case Manual:
		return 0
	default:
		panic(fmt.Sprintf("firmware: unknown mode %d", int(c.mode)))
	}
}

// UndervoltMV reports how far below nominal the given set point sits — the
// quantity plotted in the paper's Figs. 10b and 12a.
func (c *Controller) UndervoltMV(setPoint units.Millivolt) units.Millivolt {
	return c.law.VNom - setPoint
}
