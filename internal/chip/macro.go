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
//     the next firmware tick, thread completion, workload phase boundary
//     or phase-walk update, the next scheduled worst-case di/dt event, and
//     the wobble redraw boundary. Whatever happens at the horizon is then
//     resolved by ordinary micro-steps before the next leap — the tick,
//     droop events, and wobble redraws all fire inside micro-steps, in
//     both lanes. Micro-steps snap back to the absolute 1 ms grid after an
//     off-grid (event-bounded) leap, so ticks and window boundaries land
//     at the same simulated times the exact lane produces.
//
// What is NOT bit-exact versus the 1 ms reference: thermal relaxation uses
// the continuous-time exponential instead of the iterated Euler map (~1e-7
// relative difference per window), and slow thermal drift of power/voltage
// below the convergence bands is frozen for the duration of a leap (the
// bands bound the excursion to ~0.3 mV per window, self-correcting at the
// next micro-step). Both sit orders of magnitude below the 1% accuracy
// budget the harness enforces.

const (
	// quiescentAfter is how many consecutive in-band micro-steps the chip
	// must string together before it may leap: two steps prove the
	// successive-relaxation loop has stopped moving.
	quiescentAfter = 2

	// stableEpsMV is the per-step voltage movement (rail and per-core DC)
	// considered "settled"; thermal drift near equilibrium sits well below
	// it, active transients well above.
	stableEpsMV = 0.01

	// stableEpsMHz is the per-step DPLL movement considered settled; the
	// overclock tracking loop jitters below this once converged.
	stableEpsMHz = 0.01

	// gridSnapSec is the distance within which chip time counts as sitting
	// on the 1 ms micro-step grid; it absorbs float accumulation error
	// without ever mistaking a real off-grid fragment for alignment.
	gridSnapSec = 1e-9
)

// markDirty invalidates the quiescence evidence; any mutation that can
// move the operating point calls it so the next steps run at micro rate.
func (c *Chip) markDirty() { c.stable = 0 }

// updateStability runs at the end of every micro-step: it compares the
// step's electrical outcome against the previous step's and extends or
// resets the quiescence streak.
func (c *Chip) updateStability() {
	ok := math.Abs(float64(c.lastRailV-c.prevRailV)) <= stableEpsMV
	for i, co := range c.cores {
		if ok {
			if math.Abs(float64(co.voltageDC-c.prevCoreV[i])) > stableEpsMV ||
				math.Abs(float64(co.dpll.Freq()-c.prevCoreF[i])) > stableEpsMHz {
				ok = false
			}
		}
		c.prevCoreV[i] = co.voltageDC
		c.prevCoreF[i] = co.dpll.Freq()
	}
	c.prevRailV = c.lastRailV
	if ok {
		c.stable++
	} else {
		c.stable = 0
	}
}

// Quiescent reports whether the chip has earned a macro-step: the exact
// lane never does; otherwise the electrical state must have held still for
// quiescentAfter micro-steps and every clocked core's DPLL must sit at its
// control target (a slewing clock changes power every step).
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
// completion, deterministic phase boundary and stochastic phase-walk
// update, the next scheduled worst-case di/dt event (stopping just short
// so the event itself runs at micro resolution with full droop handling),
// and the ripple wobble redraw boundary.
func (c *Chip) HorizonSec(maxSec float64) float64 {
	h := maxSec
	reason := obs.ReasonCap
	if tt := firmware.TickSeconds - c.sinceTick - DefaultStepSec; tt < h {
		h = tt
		reason = obs.ReasonTick
	}

	profiles := c.scratchProfiles[:0]
	for _, co := range c.cores {
		if co.state != power.Active {
			continue
		}
		profiles = append(profiles, co.didtProfile())
		f := co.dpll.Freq()
		smt := float64(len(co.threads))
		inv := 1 / co.issueThrottle // thread time runs at throttle × wall time
		for _, th := range co.threads {
			if th.Done() {
				continue
			}
			// Stop just short of completion (like the di/dt events below):
			// the finishing step then runs at micro rate with the thread
			// alive at its start, so the final step's power and time
			// accounting matches the 1 ms lane.
			if tc := th.TimeToCompletion(f, co.memFactor, smt) * inv * (1 - 1e-9); tc < h {
				h = tc
				reason = obs.ReasonCompletion
			}
			if pb := th.TimeToPhaseBoundary() * inv; pb < h {
				h = pb
				reason = obs.ReasonPhaseBoundary
			}
			if pw := th.TimeToPhaseWalk() * inv; pw < h {
				h = pw
				reason = obs.ReasonPhaseWalk
			}
		}
	}
	if te := c.noise.TimeToNextEvent(profiles) * (1 - 1e-9); te < h {
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

// MacroStep advances a quiescent chip by h seconds in closed form: threads
// retire work at the frozen operating conditions, energy integrates at
// constant power, thermals follow the continuous-time first-order decay,
// and the margin-violation counter keeps its per-micro-step accounting.
// The caller must have bounded h by HorizonSec; crossing a scheduled di/dt
// event is a contract violation and panics.
func (c *Chip) MacroStep(h float64) {
	if h <= 0 {
		panic(fmt.Sprintf("chip %s: non-positive macro-step %v", c.cfg.Name, h))
	}

	// Profiles reflect pre-advance thread state, as in the micro-step.
	profiles := c.scratchProfiles[:0]
	for _, co := range c.cores {
		if co.state == power.Active {
			profiles = append(profiles, co.didtProfile())
		}
	}

	for _, co := range c.cores {
		co.advanceThreads(c, h)
	}

	sample := c.noise.Step(h, profiles)
	if sample.Events > 0 {
		panic(fmt.Sprintf("chip %s: di/dt event inside a %v s macro-step (horizon bug)", c.cfg.Name, h))
	}
	c.lastSample = sample

	steps := int(h/DefaultStepSec + 0.5)
	if steps > 0 {
		for _, co := range c.cores {
			if co.state == power.Gated {
				continue
			}
			agedMin := co.voltageMin - units.Millivolt(c.agingMV)
			if c.cfg.Law.MarginMV(agedMin, co.dpll.Freq()) < 0 {
				c.marginViolations += steps
			}
		}
	}

	c.energyJ += float64(c.lastChipPower) * h
	c.macroThermal(h)
	c.timeSec += h
	if r := c.rec; r != nil {
		// Attribute the leap: when the server bounded it below this chip's
		// own horizon, another socket's event did — the reason is
		// external to this chip.
		reason := c.lastHorizonReason
		if h < c.lastHorizonSec-1e-12 {
			reason = obs.ReasonExternal
		}
		r.Inc(c.src, obs.CMacroSteps)
		r.Observe(obs.HLeapSec, h)
		r.SetGauge(c.src, obs.GTimeSec, c.timeSec)
		r.Emit(obs.Event{TimeUS: obs.StampUS(c.timeSec), Kind: obs.KindLeap,
			Source: c.src, Core: -1, A: h, C: int64(reason)})
		// Backfill the step-rate series across the leap: the operating
		// point is frozen for its duration, so every skipped grid sample
		// is the held value (analytic downsample, bit-equal to pushing
		// each point).
		t1 := obs.StampUS(c.timeSec)
		t0 := obs.StampUS(c.timeSec - h)
		c.tsPower.Fill(t0, t1, float64(c.lastChipPower), stepGridUS)
		c.tsFreq.Fill(t0, t1, float64(c.cores[0].dpll.Freq()), stepGridUS)
		c.tsRail.Fill(t0, t1, float64(c.lastRailV), stepGridUS)
	}

	// The horizon may coincide with a state change (thread completion,
	// phase switch); require fresh micro-steps to re-prove convergence.
	c.stable = 0

	c.sinceTick += h
	if c.sinceTick >= firmware.TickSeconds {
		panic(fmt.Sprintf("chip %s: macro-step crossed the firmware tick (horizon bug)", c.cfg.Name))
	}
}

// macroThermal is stepThermal's closed-form counterpart: the exact
// solution of the first-order model at constant power, which the iterated
// 1 ms Euler map approaches as dt→0.
func (c *Chip) macroThermal(h float64) { c.relaxThermal(c.thermalDecay(h)) }

// thermalDecay is the fraction of the gap to its constant-power target a
// thermal node closes in h seconds. It depends on h alone, so a
// fast-forward computes it once for all its full 32 ms segments.
func (c *Chip) thermalDecay(h float64) float64 {
	return 1 - math.Exp(-h/c.cfg.ThermalTauSec)
}

// relaxThermal moves the package and every core the given decay fraction
// toward their targets at the held power.
func (c *Chip) relaxThermal(decay float64) {
	packageTarget := c.cfg.AmbientC + units.Celsius(c.cfg.ThermalResCPerW*float64(c.lastChipPower))
	c.tempC += units.Celsius(decay * float64(packageTarget-c.tempC))
	for _, co := range c.cores {
		target := packageTarget + units.Celsius(c.cfg.ThermalResCoreCPerW*float64(co.lastPower))
		co.tempC += units.Celsius(decay * float64(target-co.tempC))
	}
}

// Advance moves the chip forward by one segment — a macro-step to the next
// event horizon when quiescent, a grid-aligned micro-step otherwise (or a
// shorter final fragment when less than a micro-step remains) — and
// returns the simulated seconds consumed. Callers loop it to cover a span:
//
//	for remaining > 0 { remaining -= c.Advance(remaining) }
func (c *Chip) Advance(maxSec float64) float64 {
	if maxSec <= 0 {
		panic(fmt.Sprintf("chip %s: non-positive advance %v", c.cfg.Name, maxSec))
	}
	micro := c.MicroStepSec()
	if maxSec < micro {
		c.Step(maxSec)
		return maxSec
	}
	if !c.Quiescent() {
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
