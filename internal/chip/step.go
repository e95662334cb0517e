package chip

import (
	"fmt"

	"agsim/internal/cpm"
	"agsim/internal/didt"
	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/power"
	"agsim/internal/units"
)

// DefaultStepSec is the simulation step: 1 ms resolves the 32 ms firmware
// tick while keeping full-benchmark runs cheap.
const DefaultStepSec = 0.001

// Step advances the chip by dtSec seconds, closing the electrical and
// control loops once. The previous step's voltages seed the power
// computation (successive relaxation); the loop settles within a few steps,
// far faster than the 32 ms firmware cadence that matters for results.
func (c *Chip) Step(dtSec float64) {
	if dtSec <= 0 {
		panic(fmt.Sprintf("chip %s: non-positive step %v", c.cfg.Name, dtSec))
	}

	// 1. Chip-wide di/dt noise for this step, from the cores' pre-step
	// profiles. Droop events stamp the end of the step they fire in;
	// micro-steps end on the 1 ms grid in both stepping lanes, so the
	// recorded stream is lane-invariant.
	sample := c.noise.Step(dtSec, c.activeProfiles())
	c.lastSample = sample
	if c.rec != nil && sample.Events > 0 {
		c.rec.Add(c.src, obs.CDidtEvents, uint64(sample.Events))
		c.rec.Observe(obs.HDroopDepthMV, sample.WorstEventMV)
		c.rec.Emit(obs.Event{TimeUS: obs.StampUS(c.timeSec + dtSec), Kind: obs.KindDroop,
			Source: c.src, Core: -1, A: sample.WorstEventMV, B: sample.TypicalMV, C: int64(sample.Events)})
	}

	// 2. Power at last-known voltages, then delivery: loadline at the VRM,
	// the on-chip PDN, and each core's DC and ripple-bottom voltage.
	c.deliver()
	if n := c.violatingCores(); n > 0 {
		c.chargeViolations(n, c.timeSec, c.timeSec+dtSec)
	}

	mode := c.ctrl.Mode()
	adaptive := mode == firmware.Undervolt || mode == firmware.Overclock
	for _, co := range c.cores {
		// 3. Aging raises the circuit's requirement; everything
		// margin-facing (CPMs, DPLLs, the violation check) sees the aged
		// voltage while power still follows the real one.
		agedMin := co.voltageMin - units.Millivolt(c.agingMV)

		// 4. Droop reaction: with adaptive guardbanding on, the DPLL
		// sheds frequency fast enough to absorb worst-case events — and
		// because frequency falls with voltage, the CPM keeps reading at
		// its calibration point through the droop. Only an event that
		// outruns the DPLL (or any event with the mechanism disabled)
		// eats visibly into margin and latches the sticky CPMs.
		droopLatches := false
		if sample.Events > 0 && co.state != power.Gated {
			extra := sample.WorstEventMV - sample.TypicalMV
			if extra > 0 {
				if adaptive {
					droopLatches = !co.dpll.AbsorbDroop(agedMin, extra)
				} else {
					droopLatches = true
				}
				if droopLatches {
					c.rec.Inc(c.src, obs.CDroopsLatched)
				} else {
					c.rec.Inc(c.src, obs.CDroopsAbsorbed)
				}
			}
		}

		// 5. CPM observation at the bottom of the ripple; an uncovered
		// worst-case event is additionally latched by the sticky
		// mechanism. A read's law terms are the same for every sensor on
		// the core, so they are computed once per core and voltage.
		if co.state != power.Gated {
			f := co.dpll.Freq()
			terms := cpm.CoreTerms(&c.cfg.CPM.Law, agedMin, f)
			cpm.ReadCore(co.cpms, terms, co.lastCPM)
			if droopLatches {
				droopV := agedMin + units.Millivolt(sample.TypicalMV-sample.WorstEventMV)
				droop := cpm.CoreTerms(&c.cfg.CPM.Law, droopV, f)
				for _, s := range co.cpms {
					s.Latch(droop)
				}
			}
		}

		// 6. DPLL fast loop: track margin in the adaptive modes.
		switch mode {
		case firmware.Overclock:
			if co.state != power.Gated {
				co.dpll.TrackMargin(agedMin)
			}
		case firmware.Undervolt:
			// The CPM-DPLL loop would overclock on spare margin; the
			// firmware's job is to remove that margin so frequency sits
			// at the target. Model the fast loop as margin tracking
			// capped at the target frequency.
			if co.state != power.Gated {
				target := c.cfg.Law.FMax(agedMin - c.cfg.Law.ResidualMV)
				if target > c.cfg.Law.FNom {
					target = c.cfg.Law.FNom
				}
				co.dpll.SlewToward(target)
			}
		}

		// 7. Advance the threads at the step's conditions.
		co.advanceThreads(c, dtSec)
	}

	// 8. Bookkeeping: energy, thermals, telemetry state.
	chipPower := c.lastChipPower
	c.energyJ += float64(chipPower) * dtSec
	c.stepThermal(dtSec, chipPower)
	c.timeSec += dtSec
	c.updateStability()
	if r := c.rec; r != nil {
		r.Inc(c.src, obs.CMicroSteps)
		r.SetGauge(c.src, obs.GTimeSec, c.timeSec)
		r.SetGauge(c.src, obs.GRailMV, float64(c.lastRailV))
		r.SetGauge(c.src, obs.GSetPointMV, float64(c.rail.SetPoint()))
		r.SetGauge(c.src, obs.GPowerW, float64(chipPower))
		r.SetGauge(c.src, obs.GTempC, float64(c.tempC))
		r.SetGauge(c.src, obs.GFreqMHz, float64(c.cores[0].dpll.Freq()))
		tUS := obs.StampUS(c.timeSec)
		c.tsPower.Push(tUS, float64(chipPower))
		c.tsFreq.Push(tUS, float64(c.cores[0].dpll.Freq()))
		c.tsRail.Push(tUS, float64(c.lastRailV))
	}

	// 9. Firmware voltage loop on its 32 ms tick. The slop covers macro-lane
	// float accumulation (leap plus re-sync fragments can land a few ulps
	// under the boundary); on the exact lane's pure 1 ms sums it never
	// changes which step fires.
	c.sinceTick += dtSec
	if c.sinceTick+gridSnapSec >= firmware.TickSeconds {
		c.sinceTick = 0
		c.firmwareTick()
	}
}

// deliver is the chip's one delivery solve, run by every micro-step and by
// every rail command inside a fast-forward: per-core power at the
// last-known voltages (one pass of the successive relaxation), the
// currents through the VRM loadline and the on-chip PDN, each core's DC
// voltage and its ripple bottom at the last di/dt sample, and the
// operating-point bookkeeping. The rail power sensor sits at the regulator
// output, so chip power includes the resistive dissipation of the delivery
// path itself (loadline plus PDN) on top of the silicon's consumption. The
// slices are per-chip scratch (allocated once in New), which keeps the
// step loop allocation-free.
func (c *Chip) deliver() {
	currents := c.scratchCurrents
	var chipPower units.Watt
	var total units.Ampere
	for i, co := range c.cores {
		act, util := co.workloadDemand()
		p := c.cfg.Power.Core(co.state, co.voltageDC, co.dpll.Freq(), act, util, co.tempC)
		co.lastPower = p
		chipPower += p
		currents[i] = units.Current(p, co.voltageDC)
		total += currents[i]
	}
	uncoreP := c.cfg.Power.Uncore(c.lastRailV)
	chipPower += uncoreP
	uncoreI := units.Current(uncoreP, c.lastRailV)
	total += uncoreI
	railV := c.rail.Output(total)
	drops := c.plane.DropsInto(c.scratchDrops, currents, uncoreI)
	ripple := units.Millivolt(c.lastSample.TypicalMV)
	pathLoss := units.Watt((float64(c.rail.SetPoint()-railV)*float64(total) +
		float64(c.plane.GlobalDropMV(total))*float64(uncoreI)) / 1000)
	for i, co := range c.cores {
		co.voltageDC = railV - drops[i]
		if co.voltageDC < 1 {
			co.voltageDC = 1 // rail collapse; keep the model defined
		}
		co.voltageMin = co.voltageDC - ripple
		pathLoss += units.Watt(float64(drops[i]) * float64(currents[i]) / 1000)
	}
	c.lastChipPower = chipPower + pathLoss
	c.lastCurrent = total
	c.lastRailV = railV
	copy(c.lastDrops, drops)
}

// activeProfiles gathers every active core's di/dt profile, in core order,
// into the chip's scratch slice: the input of the noise process's step and
// of its next-event horizon.
func (c *Chip) activeProfiles() []didt.Profile {
	profiles := c.scratchProfiles[:0]
	for _, co := range c.cores {
		if co.state == power.Active {
			profiles = append(profiles, co.didtProfile())
		}
	}
	return profiles
}

// workloadDemand summarizes the core's current switching activity and
// pipeline utilization from its placed threads.
func (co *Core) workloadDemand() (activity, utilization float64) {
	if co.state != power.Active {
		return 0, 0
	}
	smt := float64(len(co.threads))
	var actSum, utilSum float64
	live := 0
	for _, th := range co.threads {
		if th.Done() {
			continue
		}
		live++
		actSum += th.ActivityNow()
		utilSum += th.Desc.Utilization(co.dpll.Freq(), co.memFactor, smt)
	}
	if live == 0 {
		return 0, 0
	}
	utilization = utilSum * co.issueThrottle
	if utilization > 1 {
		utilization = 1
	}
	return actSum / float64(live), utilization
}

// didtProfile derives the core's noise contribution from its threads,
// scaled by issue throttling (fewer issued instructions mean gentler
// current ramps).
func (co *Core) didtProfile() didt.Profile {
	var p didt.Profile
	for _, th := range co.threads {
		if th.Done() {
			continue
		}
		d := &th.Desc
		if d.DidtTypicalMV > p.TypicalMV {
			p.TypicalMV = d.DidtTypicalMV
		}
		if d.DidtWorstMV > p.WorstMV {
			p.WorstMV = d.DidtWorstMV
		}
		if d.DroopRatePerSec > p.RatePerSec {
			p.RatePerSec = d.DroopRatePerSec
		}
	}
	p.TypicalMV *= co.issueThrottle
	p.WorstMV *= co.issueThrottle
	return p
}

// advanceThreads retires work on the core's threads for one step,
// recording each completion (the chip's clock has not advanced yet at the
// call sites, so the event stamps the end of the current step).
func (co *Core) advanceThreads(c *Chip, dtSec float64) {
	if co.state != power.Active {
		co.lastMIPS = 0
		return
	}
	smt := float64(len(co.threads))
	f := co.dpll.Freq()
	var mips float64
	for _, th := range co.threads {
		if th.Done() {
			continue
		}
		retired, _ := th.Step(dtSec*co.issueThrottle, f, co.memFactor, smt)
		mips += retired * 1000 / dtSec // GInst per step back to MIPS
		if c.rec != nil && th.Done() {
			c.rec.Inc(c.src, obs.CThreadsCompleted)
			c.rec.Emit(obs.Event{TimeUS: obs.StampUS(c.timeSec + dtSec), Kind: obs.KindThreadDone,
				Source: c.src, Core: int32(co.Index)})
		}
	}
	co.lastMIPS = units.MIPS(mips)
}

// stepThermal advances the thermal model: a shared package rise from total
// power plus each core's private rise from its own dissipation.
func (c *Chip) stepThermal(dtSec float64, p units.Watt) {
	alpha := dtSec / c.cfg.ThermalTauSec
	if alpha > 1 {
		alpha = 1
	}
	packageTarget := c.cfg.AmbientC + units.Celsius(c.cfg.ThermalResCPerW*float64(p))
	c.tempC += units.Celsius(alpha * float64(packageTarget-c.tempC))
	for _, co := range c.cores {
		target := packageTarget + units.Celsius(c.cfg.ThermalResCoreCPerW*float64(co.lastPower))
		co.tempC += units.Celsius(alpha * float64(target-co.tempC))
	}
}

// firmwareTick gathers the chip-wide margin reading and lets the controller
// command the rail, then clears the per-window sticky latches (the AMESTER
// window semantics).
func (c *Chip) firmwareTick() {
	// The tick redraws per-window CPM noise and may move the rail; either
	// way the next window must re-prove convergence (and refresh the CPM
	// reads the following tick will act on) at micro rate.
	c.markDirty()
	reading := c.marginReading()
	old := c.rail.SetPoint()
	next := c.ctrl.VoltageCommand(old, reading)
	if c.ctrl.Mode() == firmware.Undervolt {
		c.rail.Command(next)
	}
	if r := c.rec; r != nil {
		r.Inc(c.src, obs.CFirmwareTicks)
		r.Observe(obs.HWindowMinCPM, float64(reading.MinStickyCPM))
		var dead int64
		if reading.AnyDead {
			dead = 1
		}
		r.Emit(obs.Event{TimeUS: obs.StampUS(c.timeSec), Kind: obs.KindWindow,
			Source: c.src, Core: -1, A: float64(reading.MinCPM), B: float64(reading.MinStickyCPM), C: dead})
		if c.ctrl.Mode() == firmware.Undervolt && next != old {
			r.Inc(c.src, obs.CRailCommands)
			r.Emit(obs.Event{TimeUS: obs.StampUS(c.timeSec), Kind: obs.KindDVFS,
				Source: c.src, Core: -1, A: float64(next), B: float64(old), C: -1})
		}
		c.emitAttrib(r, obs.StampUS(c.timeSec), next)
	}
	c.clearStickies()
}

// emitAttrib records the guardband-attribution record the controller just
// produced: the health detectors' throttle and exhausted-margin counters,
// a KindAttrib event and a margin time-series sample. Shared verbatim by
// the live tick and the frozen fast-forward tick so the counts and
// streams are identical across lanes.
func (c *Chip) emitAttrib(r *obs.Recorder, tUS int64, next units.Millivolt) {
	a := c.ctrl.LastAttribution()
	if a.Decision == firmware.DecisionThrottle {
		r.Inc(c.src, obs.CThrottleDecisions)
	}
	// Zero margin is the deadband, the converged controller's target; only
	// margin consumed below it counts, and a fixed-mode tick senses none.
	if a.Decision != firmware.DecisionFixed && a.MarginBits < 0 {
		r.Inc(c.src, obs.CExhaustedTicks)
	}
	r.Emit(obs.Event{TimeUS: tUS, Kind: obs.KindAttrib, Source: c.src, Core: -1,
		A: float64(a.MarginBits), B: float64(next), C: a.Pack()})
	c.tsMargin.Push(tUS, float64(a.MarginBits))
}

// marginReading summarizes the worst margin across all clocked cores.
func (c *Chip) marginReading() firmware.MarginReading {
	r := firmware.MarginReading{
		MinCPM:       cpm.MaxValue,
		MinStickyCPM: cpm.MaxValue,
		MVPerBit:     21,
		NoSensors:    true,
		CurrentA:     float64(c.rail.SenseCurrent()),
	}
	for _, co := range c.cores {
		if co.state == power.Gated {
			continue
		}
		r.NoSensors = false
		f := co.dpll.Freq()
		for j, s := range co.cpms {
			if s.Dead() {
				r.AnyDead = true
			}
			if v := co.lastCPM[j]; v < r.MinCPM {
				r.MinCPM = v
				r.MVPerBit = s.MVPerBit(f)
			}
			if sv, ok := s.Sticky(); ok && sv < r.MinStickyCPM {
				r.MinStickyCPM = sv
			}
		}
	}
	return r
}

func (c *Chip) clearStickies() {
	for _, co := range c.cores {
		for j, s := range co.cpms {
			if v, ok := s.Sticky(); ok {
				co.lastWindowSticky[j] = v
			} else {
				co.lastWindowSticky[j] = cpm.MaxValue
			}
			s.StickyReset()
		}
	}
	c.lastWindowWorstDidt = c.noise.WorstSinceReset()
	c.noise.StickyReset()
}

// settleEps is the residue below which a Settle/Advance loop considers a
// time span covered; it absorbs float accumulation error without ever
// dropping a meaningful fraction of a step.
const settleEps = 1e-9

// Settle runs the chip for the given simulated seconds so the electrical
// relaxation and the firmware loop converge before measurements begin.
// Thread progress during settling is real work: callers measuring
// run-to-completion times should settle with placeholder load or accept the
// small head start. Settling rides the multi-rate path (see macro.go);
// fractional remainders shorter than a full step are stepped explicitly
// rather than truncated away.
func (c *Chip) Settle(seconds float64) {
	for remaining := seconds; remaining > settleEps; {
		remaining -= c.Advance(remaining)
	}
}
