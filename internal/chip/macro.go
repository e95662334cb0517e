package chip

import (
	"fmt"
	"math"

	"agsim/internal/didt"
	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/power"
	"agsim/internal/units"
)

// Multi-rate stepping: the electrical loop settles within a few 1 ms
// micro-steps of any perturbation, the firmware only acts every 32 ms, and
// between those two cadences a settled chip recomputes an unchanged steady
// state. The engine in this file detects that quiescence and crosses the
// gap to the next event horizon in one closed-form macro-step.
//
// Quiescence is proved from each micro-step's largest movement in band
// units (updateStability): the last two movements either both sit inside
// the bands, or they contract and the geometric tail of the relaxation
// still to come fits inside one band. A leap keeps that proof unless the
// horizon it reached was one of the chip's own thread events (completion,
// phase walk), which change the next step's power; a tick, a wobble redraw
// or a di/dt event either moves nothing the bands watch or shows up as a
// fresh movement in the step that resolves it.
//
// Correctness rests on two pillars:
//
//  1. Time-indexed randomness. Every stochastic process consumed during a
//     leap is indexed by simulated time, not by step count: di/dt events
//     come from a pre-drawn exposure schedule, the ripple wobble redraws
//     at fixed window boundaries, CPM read noise holds per sticky window,
//     and the workload phase walk updates per 32 ms of thread time. A
//     macro-step therefore consumes exactly the draws the equivalent
//     micro-steps would, and the exact (-exact) and macro lanes share one
//     event history.
//  2. Event horizons. A leap never crosses anything that would change the
//     operating point: it stops at (the earliest of) one micro-step before
//     the next firmware tick, thread completion or phase-walk update, the
//     next scheduled worst-case di/dt event, and the wobble redraw
//     boundary. Whatever happens at the horizon is then resolved by
//     ordinary micro-steps before the next leap — the tick, droop events,
//     and wobble redraws all fire inside micro-steps, in both lanes.
//     Micro-steps snap back to the absolute 1 ms grid after an off-grid
//     (event-bounded) leap, so ticks and window boundaries land at the
//     same simulated times the exact lane produces.
//
// What is NOT bit-exact versus the 1 ms reference: thermal relaxation uses
// the continuous-time exponential instead of the iterated Euler map (~1e-7
// relative difference per window), and slow thermal drift of power/voltage
// is frozen for the duration of a leap. The bands bound drift per step,
// not a leap's accumulated drift — the first step after a 29 ms leap on a
// Fig. 17 chip moves the DPLL by about 1.3 bands — and the next micro-step
// resolves whatever accumulated. Both sit orders of magnitude below the 1%
// accuracy budget the harness enforces.

const (
	// quiescentAfter is how many post-perturbation micro-steps the proof
	// needs: two successive movements, to tell a settled or contracting
	// relaxation from one still under way.
	quiescentAfter = 2

	// stableEpsMV is one band of per-step voltage movement (rail and
	// per-core DC): thermal drift near equilibrium sits well below it,
	// active transients well above. Quiescence needs the relaxation's
	// remaining movement to fit inside one band.
	stableEpsMV = 0.01

	// stableEpsMHz is one band of per-step DPLL movement; the overclock
	// tracking loop jitters below it once converged.
	stableEpsMHz = 0.01

	// gridSnapSec is the distance within which chip time counts as sitting
	// on the 1 ms micro-step grid; it absorbs float accumulation error
	// without ever mistaking a real off-grid fragment for alignment.
	gridSnapSec = 1e-9
)

// markDirty invalidates the quiescence evidence; any mutation that can
// move the operating point calls it so the next steps run at micro rate.
func (c *Chip) markDirty() { c.stable = 0 }

// updateStability runs at the end of every micro-step, on both lanes. It
// measures the step's largest movement m — of the rail, any core's DC
// voltage or any DPLL, in band units — and advances the quiescence proof.
// The chip is settled once the last two movements, both measured since the
// last markDirty, either sit inside the bands or contract with a geometric
// tail inside one band: with ρ = m/m_prev < 1 the relaxation still has at
// most m·ρ/(1−ρ) = m²/(m_prev−m) to move. The in-band branch covers
// sub-band drift that does not contract (thermal drift, ρ ≈ 1). Running
// maxima and two divisions keep the exact lane's per-step cost flat.
func (c *Chip) updateStability() {
	dv := math.Abs(float64(c.lastRailV - c.prevRailV))
	var df float64
	for i, co := range c.cores {
		if d := math.Abs(float64(co.voltageDC - c.prevCoreV[i])); d > dv {
			dv = d
		}
		if d := math.Abs(float64(co.dpll.Freq() - c.prevCoreF[i])); d > df {
			df = d
		}
		c.prevCoreV[i] = co.voltageDC
		c.prevCoreF[i] = co.dpll.Freq()
	}
	c.prevRailV = c.lastRailV
	m := dv / stableEpsMV
	if mf := df / stableEpsMHz; mf > m {
		m = mf
	}
	prev, measured := c.lastMove, c.stable > 0
	c.lastMove = m
	c.stable = 1
	if measured && (m <= 1 && prev <= 1 || m < prev && m*m <= prev-m) {
		c.stable = quiescentAfter
	}
}

// Quiescent reports whether the chip has earned a macro-step: the exact
// lane never does; otherwise updateStability must have proved the
// relaxation settled and every clocked core's DPLL must sit at its control
// target (a slewing clock changes power every step).
func (c *Chip) Quiescent() bool {
	if c.exact || c.stable < quiescentAfter {
		return false
	}
	mode := c.ctrl.Mode()
	if mode != firmware.Overclock && mode != firmware.Undervolt {
		return true // Static/Manual: the DPLLs hold wherever they were set
	}
	for _, co := range c.cores {
		if co.state == power.Gated {
			continue
		}
		agedMin := co.voltageMin - units.Millivolt(c.agingMV)
		target := c.cfg.Law.FMax(agedMin - c.cfg.Law.ResidualMV)
		if mode == firmware.Undervolt && target > c.cfg.Law.FNom {
			target = c.cfg.Law.FNom
		}
		if !co.dpll.SettledWithin(target, stableEpsMHz) {
			return false
		}
	}
	return true
}

// MicroStepSec returns the duration of the chip's next micro-step: exactly
// DefaultStepSec when chip time sits on the 1 ms grid, or the shorter
// fragment that re-syncs to the grid after an event-bounded (off-grid)
// leap. Grid alignment keeps the firmware tick, the sticky-window
// boundaries, and the ripple wobble redraws firing at the same absolute
// times in the macro and exact lanes.
func (c *Chip) MicroStepSec() float64 {
	k := math.Floor(c.timeSec/DefaultStepSec + 0.5)
	frac := c.timeSec - k*DefaultStepSec
	if frac > gridSnapSec {
		return (k+1)*DefaultStepSec - c.timeSec
	}
	if frac < -gridSnapSec {
		return k*DefaultStepSec - c.timeSec
	}
	return DefaultStepSec
}

// HorizonSec returns how far a quiescent chip may leap from now without
// crossing an event, capped at maxSec. The horizon is the earliest of:
// one micro-step short of the next firmware tick (the tick itself — sticky
// resets, CPM redraw, rail command — always runs inside an ordinary
// micro-step, so telemetry sampled after each segment sees in-window state
// with the same weighting as the 1 ms lane), each live thread's
// completion and stochastic phase-walk update, the next scheduled
// worst-case di/dt event (stopping just short so the event itself runs at
// micro resolution with full droop handling), and the ripple wobble redraw
// boundary.
func (c *Chip) HorizonSec(maxSec float64) float64 {
	h := maxSec
	reason := obs.ReasonCap
	if tt := firmware.TickSeconds - c.sinceTick - DefaultStepSec; tt < h {
		h = tt
		reason = obs.ReasonTick
	}

	h, reason = c.threadHorizon(h, reason, true)
	if te := c.noise.TimeToNextEvent(c.activeProfiles()) * (1 - 1e-9); te < h {
		h = te
		reason = obs.ReasonDidtEvent
	}
	tw := c.noise.TimeToWobbleRefresh()
	for tw <= 0 {
		// A boundary due right now refreshes at the leap's first instant;
		// the constraint is the one after it.
		tw += didt.WobbleWindowSec
	}
	if tw < h {
		h = tw
		reason = obs.ReasonWobble
	}
	c.lastHorizonSec = h
	c.lastHorizonReason = reason
	return h
}

// threadHorizon lowers h to the nearest live-thread event and reports
// which one bound it (reason is kept when none is nearer): each thread's
// completion and, with walks, its stochastic phase-walk update, both in
// wall seconds (thread time runs at throttle × wall time). Completion
// stops one part in 1e9 short, so the finishing step runs at detailed rate
// with the thread alive at its start and its power and time accounting
// match the 1 ms lane. Leaps stop at phase walks; fast-forwards cross
// them, since a walk consumes its time-indexed draw inside advanceThreads
// either way.
func (c *Chip) threadHorizon(h float64, reason obs.Reason, walks bool) (float64, obs.Reason) {
	for _, co := range c.cores {
		if co.state != power.Active {
			continue
		}
		f := co.dpll.Freq()
		smt := float64(len(co.threads))
		inv := 1 / co.issueThrottle
		for _, th := range co.threads {
			if th.Done() {
				continue
			}
			if tc := th.TimeToCompletion(f, co.memFactor, smt) * inv * (1 - 1e-9); tc < h {
				h = tc
				reason = obs.ReasonCompletion
			}
			if !walks {
				continue
			}
			if pw := th.TimeToPhaseWalk() * inv; pw < h {
				h = pw
				reason = obs.ReasonPhaseWalk
			}
		}
	}
	return h, reason
}

// MacroStep advances a quiescent chip by h seconds in closed form: one
// held span (holdSpan), the integrator a fast-forward runs too. The caller
// must have bounded h by HorizonSec; crossing the firmware tick or a
// scheduled di/dt event is a contract violation and panics. So is a span
// that ends within holdSpan's grid snap of the tick: holdSpan would fire
// it as a frozen tick, which reads the frozen read model only a
// FastForward builds. The check before the span uses holdSpan's own tick
// rule, so no frozen tick runs; the one after it holds the two rules
// together.
func (c *Chip) MacroStep(h float64) {
	if h <= 0 {
		panic(fmt.Sprintf("chip %s: non-positive macro-step %v", c.cfg.Name, h))
	}
	if c.sinceTick+h+gridSnapSec >= firmware.TickSeconds {
		panic(fmt.Sprintf("chip %s: macro-step reaches the firmware tick (horizon bug)", c.cfg.Name))
	}

	sample, ticked := c.holdSpan(h)
	if ticked {
		panic(fmt.Sprintf("chip %s: firmware tick inside a %v s macro-step (horizon bug)", c.cfg.Name, h))
	}
	if sample.Events > 0 {
		panic(fmt.Sprintf("chip %s: di/dt event inside a %v s macro-step (horizon bug)", c.cfg.Name, h))
	}
	c.lastSample = sample

	// Attribute the leap: when the server bounded it below this chip's own
	// horizon, another socket's event did — the reason is external to this
	// chip.
	reason := c.lastHorizonReason
	if h < c.lastHorizonSec-1e-12 {
		reason = obs.ReasonExternal
	}
	if r := c.rec; r != nil {
		r.Inc(c.src, obs.CMacroSteps)
		r.Observe(obs.HLeapSec, h)
		r.SetGauge(c.src, obs.GTimeSec, c.timeSec)
		r.Emit(obs.Event{TimeUS: obs.StampUS(c.timeSec), Kind: obs.KindLeap,
			Source: c.src, Core: -1, A: h, C: int64(reason)})
	}

	// A thread event at the horizon the leap reached changes the next
	// step's power without moving anything the last step measured, so it
	// restarts the proof. The tick marks dirty inside its own step, and a
	// wobble redraw or a di/dt event either moves nothing the bands watch
	// or shows up as movement in the step that resolves it, so the proof
	// survives every other horizon.
	switch reason {
	case obs.ReasonCompletion, obs.ReasonPhaseWalk:
		c.markDirty()
	}
}

// holdSpan is the held-span integrator macro-steps and fast-forwards
// share. It advances the chip h seconds at the held operating point:
// threads retire work at the held conditions, the di/dt exposure schedule
// advances over the span (from pre-advance profiles, as in the
// micro-step), and each segment charges its margin violations per 1 ms
// grid point (chargeViolations), in the chip's count and the recorder's
// alike. It returns the span's di/dt sample and whether a firmware tick
// fired inside it.
func (c *Chip) holdSpan(h float64) (sample didt.Sample, ticked bool) {
	profiles := c.activeProfiles()
	for _, co := range c.cores {
		co.advanceThreads(c, h)
	}
	sample = c.noise.Step(h, profiles)

	// Walk the span on the 32 ms grid. Each segment integrates energy at
	// the held power, relaxes the package and every core toward their
	// held-power targets along the exact solution of the first-order
	// thermal model (stepThermal's 1 ms Euler map approaches it as dt→0),
	// advances the clock and tick phase, and backfills the step-rate
	// series at the held values (analytic downsample, bit-equal to pushing
	// each grid point; bindSeries attaches the three together). A tick the
	// span reaches fires as a frozen tick, which may re-anchor the
	// operating point for the next segment; a leap never reaches one, since
	// its horizon stops a micro-step short. When the tick's outcome was
	// decided (holdDecidedTicks), the span's remaining full segments run
	// in one batch. Three inputs hold across segments: the thermal decay of
	// a full segment (after a tick, seg is exactly TickSeconds), and the
	// rail's sensed current and the count of violating cores, which move
	// only when a frozen tick's rail command re-solves the operating point.
	var tickDecay, senseA float64
	violating := c.violatingCores()
	if h >= firmware.TickSeconds {
		tickDecay = c.thermalDecay(firmware.TickSeconds)
	}
	for rem := h; rem > settleEps; {
		seg := firmware.TickSeconds - c.sinceTick
		if seg > rem {
			seg = rem
		}
		decay := tickDecay
		if seg != firmware.TickSeconds {
			decay = c.thermalDecay(seg)
		}
		if violating > 0 {
			c.chargeViolations(violating, c.timeSec, c.timeSec+seg)
		}
		c.energyJ += float64(c.lastChipPower) * seg
		pkg := c.packageTarget()
		c.tempC = relax(c.tempC, pkg, decay)
		for _, co := range c.cores {
			co.tempC = relax(co.tempC, c.coreTarget(pkg, co), decay)
		}
		c.timeSec += seg
		c.sinceTick += seg
		rem -= seg
		if c.tsPower != nil {
			t1 := obs.StampUS(c.timeSec)
			t0 := obs.StampUS(c.timeSec - seg)
			c.tsPower.Fill(t0, t1, float64(c.lastChipPower), stepGridUS)
			c.tsFreq.Fill(t0, t1, float64(c.cores[0].dpll.Freq()), stepGridUS)
			c.tsRail.Fill(t0, t1, float64(c.lastRailV), stepGridUS)
		}
		if c.sinceTick+gridSnapSec >= firmware.TickSeconds {
			if !ticked {
				senseA = float64(c.rail.SenseCurrent())
				ticked = true
			}
			c.sinceTick = 0
			if c.frozenTick(senseA) {
				senseA = float64(c.rail.SenseCurrent())
				violating = c.violatingCores()
			}
			if rem >= firmware.TickSeconds && !c.frozenModelRead() {
				rem = c.holdDecidedTicks(rem, tickDecay, violating)
			}
		}
	}
	return sample, ticked
}

// holdDecidedTicks runs the full 32 ms segments left in a held span after
// a decided frozen tick, and returns what remains of the span. A frozen
// tick is decided when no recorder observes it and the mode's command
// ignores the reading (Static, Overclock, Manual; frozenModelRead is
// false). It cannot move the rail, so the operating point holds to the
// span's end, and each later tick would only draw one frozen uniform that
// nothing reads, count one controller tick with the attribution the first
// one wrote, and clear the di/dt latch the first one cleared. So the loop
// keeps only the float sums the per-tick path adds (energy, time, the
// span's remainder, violations on the 1 ms grid), relaxHeld iterates the
// temperatures, and the ticks settle in closed form afterwards. The frozen
// stream moves one draw per tick, as frozenTick's does (none on a fully
// gated chip or one with a dead sensor), so it stays aligned across modes
// and recorders.
func (c *Chip) holdDecidedTicks(rem, decay float64, violating int) float64 {
	// The sums run in locals, each in the per-tick path's expression.
	energy, now, p := c.energyJ, c.timeSec, float64(c.lastChipPower)
	n := 0
	for ; rem >= firmware.TickSeconds; n++ {
		if violating > 0 {
			c.chargeViolations(violating, now, now+firmware.TickSeconds)
		}
		energy += p * firmware.TickSeconds
		now += firmware.TickSeconds
		rem -= firmware.TickSeconds
	}
	c.energyJ, c.timeSec = energy, now
	c.relaxHeld(n, decay)
	if !c.frozenAnyDead && !c.frozenNoSensors {
		c.frozenRNG.Skip(uint64(n))
	}
	c.ctrl.CountFixedTicks(n)
	c.lastWindowWorstDidt = 0
	c.noise.StickyReset()
	return rem
}

// relaxGroup is how many thermal nodes relaxHeld iterates side by side:
// the package and up to 15 cores, all of an 8-core chip in one group.
const relaxGroup = 16

// relaxHeld runs the thermal relaxation of n held segments: each segment,
// the package and every core relax toward their held-power targets. The
// nodes are independent, so it iterates them in groups held in locals,
// and stops a group early once a segment leaves all its temperatures
// unchanged bit for bit: with fixed targets and decay, each is then at its
// fixed point.
func (c *Chip) relaxHeld(n int, decay float64) {
	pkg := c.packageTarget()
	var temp, target [relaxGroup]units.Celsius
	for first := 0; first <= len(c.cores); first += relaxGroup {
		k := min(relaxGroup, len(c.cores)+1-first)
		for j := range k {
			if i := first + j; i == 0 {
				temp[j], target[j] = c.tempC, pkg
			} else {
				temp[j], target[j] = c.cores[i-1].tempC, c.coreTarget(pkg, c.cores[i-1])
			}
		}
		for range n {
			var moved uint64
			for j := range k {
				old := temp[j]
				temp[j] = relax(old, target[j], decay)
				moved |= math.Float64bits(float64(temp[j])) ^ math.Float64bits(float64(old))
			}
			if moved == 0 {
				break
			}
		}
		for j := range k {
			if i := first + j; i == 0 {
				c.tempC = temp[j]
			} else {
				c.cores[i-1].tempC = temp[j]
			}
		}
	}
}

// packageTarget is the package temperature the held chip power settles to.
func (c *Chip) packageTarget() units.Celsius {
	return c.cfg.AmbientC + units.Celsius(c.cfg.ThermalResCPerW*float64(c.lastChipPower))
}

// coreTarget is the temperature core co settles to above the package
// target pkg at its held power.
func (c *Chip) coreTarget(pkg units.Celsius, co *Core) units.Celsius {
	return pkg + units.Celsius(c.cfg.ThermalResCoreCPerW*float64(co.lastPower))
}

// relax moves temperature x the fraction decay of the gap to target, one
// held segment's relaxation (see holdSpan).
func relax(x, target units.Celsius, decay float64) units.Celsius {
	return x + units.Celsius(decay*float64(target-x))
}

// violatingCores counts the clocked cores whose aged ripple-bottom
// voltage leaves negative timing margin at their clock. It depends only
// on the operating point, so a held span counts once per delivery solve.
func (c *Chip) violatingCores() int {
	n := 0
	for _, co := range c.cores {
		if co.state != power.Gated && c.cfg.Law.MarginMV(co.voltageMin-units.Millivolt(c.agingMV), co.dpll.Freq()) < 0 {
			n++
		}
	}
	return n
}

// chargeViolations charges n violating cores over the span (t0, t1] with
// one violation each per 1 ms grid point the span covers: the core-steps
// the exact lane takes there. Leaps, fast-forward segments, micro-steps
// and off-grid fragments all charge this way, so the count does not
// depend on where a lane's spans fall on the grid. A point within
// gridSnapSec of an end counts as sitting on it.
func (c *Chip) chargeViolations(n int, t0, t1 float64) {
	points := int(math.Floor((t1+gridSnapSec)/DefaultStepSec)) - int(math.Floor((t0+gridSnapSec)/DefaultStepSec))
	if points <= 0 {
		return
	}
	c.marginViolations += n * points
	c.rec.Add(c.src, obs.CMarginViolations, uint64(n*points))
}

// thermalDecay is the fraction of the gap to its constant-power target a
// thermal node closes in h seconds. It depends on h alone, so a
// fast-forward computes it once for all its full 32 ms segments.
func (c *Chip) thermalDecay(h float64) float64 {
	return 1 - math.Exp(-h/c.cfg.ThermalTauSec)
}

// TickDue reports whether the firmware tick is close enough that no leap
// can start now: HorizonSec stops one micro-step short of the tick, at
// TickSeconds − sinceTick − DefaultStepSec from now, so when that is at
// most micro it returns at most micro and the caller takes a micro-step
// anyway.
func (c *Chip) TickDue(micro float64) bool {
	return firmware.TickSeconds-c.sinceTick-DefaultStepSec <= micro
}

// Advance moves the chip forward by one segment — a macro-step to the next
// event horizon when quiescent, a grid-aligned micro-step otherwise (or a
// shorter final fragment when less than a micro-step remains) — and
// returns the simulated seconds consumed. Callers loop it to cover a span:
//
//	for remaining > 0 { remaining -= c.Advance(remaining) }
//
// A quiescent chip whose tick is due (TickDue) steps without searching
// for a horizon: the search could only return a micro-step or less.
// Skipping it leaves lastHorizonSec and lastHorizonReason at the last
// search's values, which only a MacroStep right after a search reads. The
// exact lane is never quiescent, so it never evaluates the check.
func (c *Chip) Advance(maxSec float64) float64 {
	if maxSec <= 0 {
		panic(fmt.Sprintf("chip %s: non-positive advance %v", c.cfg.Name, maxSec))
	}
	micro := c.MicroStepSec()
	if maxSec < micro {
		c.Step(maxSec)
		return maxSec
	}
	if !c.Quiescent() || c.TickDue(micro) {
		c.Step(micro)
		return micro
	}
	h := c.HorizonSec(maxSec)
	if h <= micro {
		c.Step(micro)
		return micro
	}
	c.MacroStep(h)
	return h
}
