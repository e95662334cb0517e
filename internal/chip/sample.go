package chip

import (
	"fmt"
	"math"

	"agsim/internal/cpm"
	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/power"
	"agsim/internal/units"
)

// Sampled-lane seam. The sampling governor (internal/sample) alternates
// detailed spans — ordinary Advance segments with full electrical,
// firmware, and telemetry fidelity — with fast-forward spans that
// extrapolate from the last detailed operating point. A fast-forward runs
// the macro lane's own code: its horizon is threadHorizon, its span is
// holdSpan, and a rail command inside it re-solves the operating point
// with the step kernel's deliver. The split of responsibilities mirrors
// the macro engine's HorizonSec/MacroStep pair: SampleHint bounds how far
// an extrapolation may run, FastForward takes the span.
//
// A fast-forward is deliberately coarser than a macro-leap: it crosses
// wobble redraws, phase-walk updates, and scheduled di/dt events, holding
// the electrical state frozen throughout. That is the fidelity trade the
// governor's confidence tracker prices: what stays exact is work
// retirement (thread phase walks consume their time-indexed draws inside
// advanceThreads), the di/dt event count (the pre-drawn exposure schedule
// is evaluated over the whole span), and the firmware voltage loop (ticks
// fire on the 32 ms grid, with the controller's sensed minimum drawn from
// the exact per-window read distribution at the frozen point, so the slow
// control dynamics — including the stochastic plateau hops the CPM
// quantization deadband produces — continue at their true per-window
// probabilities); what is frozen is the electrical solve, droop reaction,
// wobble state, and per-sensor telemetry (lastCPM and the window-sticky
// latches hold their last detailed values through a span), with the
// operating point re-solved when a tick moves the rail.
// Sampled-lane results are statistically, not bit-, comparable to the
// exact lane, while remaining bit-identical across worker counts.
//
// Most frozen ticks are decided before they fire: with no recorder
// attached, a tick that repeats the controller's last command cannot move
// the rail, and nothing observes its window minimum. A Static, Overclock
// or Manual command ignores the reading, so each tick repeats the last.
// An unclamped Undervolt hold repeats exactly when the next tick's uniform
// draws the calibration target as the minimum read again, which on a
// converged chip is nearly every tick: the paper's CPMs "hover around" the
// target (§4.1). After a span's first tick, holdSpan runs such ticks in
// one batch (holdDecidedTicks) that keeps only their float sums and
// settles the rest in closed form. A fixed-mode batch moves the frozen
// stream by the one uniform each full tick draws (rng.Source.Skip). An
// Undervolt batch draws each tick's uniform, and the first draw off the
// target goes to a full tick. So a later mode switch, or an attached
// recorder, sees the same draws either way.

// SampleHint returns how far a fast-forward may run from now without
// crossing a deterministic change of operating point, capped at maxSec:
// the macro lane's live-thread horizon (threadHorizon) without its phase
// walks, which a fast-forward crosses.
func (c *Chip) SampleHint(maxSec float64) float64 {
	h, _ := c.threadHorizon(maxSec, obs.ReasonCap, false)
	return h
}

// FastForward advances the chip h seconds analytically at the frozen
// operating point: the held span a macro-step leaps (holdSpan), here
// crossing firmware ticks, which fire as frozen ticks — the voltage-loop
// decision on a sensed minimum drawn from the exact window-read
// distribution at the held electrical point — with the tick phase carried
// across so subsequent detailed windows tick on the same absolute 32 ms
// grid. The exposure schedule ticks over the whole span: event counts are
// exact and the next detailed window sees the same pending-event state the
// exact lane would. Reaction (DPLL absorb, sticky latching) is frozen —
// that is the sampled lane's stated fidelity trade. The caller must have
// bounded h by SampleHint.
func (c *Chip) FastForward(h float64) {
	if !(h > 0) {
		panic(fmt.Sprintf("chip %s: non-positive fast-forward %v", c.cfg.Name, h))
	}

	c.refreshFrozenReadCache()
	c.frozenCarry = true
	sample, ticked := c.holdSpan(h)
	c.frozenCarry = false
	if ticked {
		// Close the span's final window exactly as the detailed rollover
		// would: latches are already clear inside a span, so this redraws
		// each sensor's held window noise, giving the partial window the
		// next detailed steps open a fresh realization independent of the
		// one the span started with.
		for _, co := range c.cores {
			for _, s := range co.cpms {
				s.StickyReset()
			}
		}
	}

	if r := c.rec; r != nil {
		r.Inc(c.src, obs.CFastForwards)
		r.Observe(obs.HFastForwardSec, h)
		r.SetGauge(c.src, obs.GTimeSec, c.timeSec)
		if sample.Events > 0 {
			r.Add(c.src, obs.CDidtEvents, uint64(sample.Events))
			r.Observe(obs.HDroopDepthMV, sample.WorstEventMV)
			r.Emit(obs.Event{TimeUS: obs.StampUS(c.timeSec), Kind: obs.KindDroop,
				Source: c.src, Core: -1, A: sample.WorstEventMV, B: sample.TypicalMV, C: int64(sample.Events)})
		}
	}

	// The operating point is stale by construction; re-prove quiescence at
	// detailed rate before any further macro-leaping.
	c.markDirty()
}

// frozenTick fires one firmware voltage-loop decision inside a
// fast-forward. Instead of redrawing per-window noise and re-reading every
// sensor at the held voltages, it draws the controller's input — the
// chip-wide minimum read and the sensitivity of the sensor achieving it —
// from the exact joint distribution the frozen-span read model precomputed
// (refreshFrozenReadCache): one uniform per tick replaces per-sensor
// Gaussians and quantized reads, the dominant cost of long spans. The slow
// control loop keeps its stochastic dynamics — in particular the rare
// plateau hops the CPM quantization deadband produces, which set the
// long-horizon undervolt mean — at their exact per-window probabilities. A
// rail command re-anchors the frozen operating point — the step kernel's
// delivery solve at the new set point, enough for the millivolt-scale
// moves the voltage loop makes between windows, and a read-model rebuild
// — and frozenTick reports it, so the caller re-reads the sensed current
// senseA it passes in. The next detailed window re-proves the point at
// micro rate (FastForward ends in markDirty). The caller draws the tick's
// uniform u, unless the chip draws nothing (frozenDraws). With no recorder, the ticks after one whose
// command the controller repeats (any Static, Overclock or Manual tick, an
// unclamped Undervolt hold) are decided, and holdDecidedTicks settles
// them; in Undervolt it stops at the first draw off the calibration
// target and hands that draw to this path.
func (c *Chip) frozenTick(senseA, u float64) (moved bool) {
	reading := firmware.MarginReading{
		MinCPM:       cpm.MaxValue,
		MinStickyCPM: cpm.MaxValue,
		MVPerBit:     21,
		AnyDead:      c.frozenAnyDead,
		NoSensors:    c.frozenNoSensors,
		CurrentA:     senseA,
	}

	carried := cpm.MaxValue
	if c.frozenCarry {
		// First tick of the span: consume the sticky latches carried in
		// from the detailed steps before the fast-forward (a droop there
		// may have latched a worse value than any frozen read), then clear
		// them without touching the noise streams. No latch forms inside a
		// span — reads are subsumed by the aggregate minimum draw.
		c.frozenCarry = false
		for _, co := range c.cores {
			gated := co.state == power.Gated
			for _, s := range co.cpms {
				if !gated {
					if sv, ok := s.Sticky(); ok && sv < carried {
						carried = sv
					}
				}
				s.ClearSticky()
			}
		}
	}

	switch {
	case c.frozenNoSensors:
		// Every core gated: nothing to read, the controller holds nominal.
	case c.frozenAnyDead:
		// A dead CPM reads 0 every window and dominates the minimum; the
		// controller fail-safes to nominal on the flag regardless.
		reading.MinCPM = 0
		reading.MinStickyCPM = 0
	default:
		if !c.frozenModelRead() {
			break
		}
		ns := len(c.frozenDetMV)
		m := 0
		for m < cpm.MaxValue && u < c.frozenTail[m+1] {
			m++
		}
		// Conditioned on the minimum being m, u is uniform over
		// [tail[m+1], tail[m]) — reuse it to pick which sensor achieved
		// the minimum from the cumulative first-argmin weights, so one
		// draw samples the exact joint (minimum, sensitivity) law.
		v := u - c.frozenTail[m+1]
		row := c.frozenArgW[m*ns : (m+1)*ns]
		k := 0
		for k < ns-1 && row[k] <= v {
			k++
		}
		reading.MinCPM = m
		reading.MVPerBit = c.frozenMVB[k]
		reading.MinStickyCPM = m
		if carried < m {
			reading.MinStickyCPM = carried
		}
	}

	old := c.rail.SetPoint()
	next := c.ctrl.VoltageCommand(old, reading)
	moved = c.ctrl.Mode() == firmware.Undervolt && next != old
	if moved {
		c.rail.Command(next)
		c.deliver()
		c.refreshFrozenReadCache()
	}
	if r := c.rec; r != nil {
		r.Inc(c.src, obs.CFirmwareTicks)
		r.Observe(obs.HWindowMinCPM, float64(reading.MinStickyCPM))
		if moved {
			r.Inc(c.src, obs.CRailCommands)
			r.Emit(obs.Event{TimeUS: obs.StampUS(c.timeSec), Kind: obs.KindDVFS,
				Source: c.src, Core: -1, A: float64(next), B: float64(old), C: -1})
		}
		c.emitAttrib(r, obs.StampUS(c.timeSec), next)
	}
	c.lastWindowWorstDidt = c.noise.WorstSinceReset()
	c.noise.StickyReset()
	return moved
}

// refreshFrozenReadCache rebuilds the frozen-span read model at the held
// operating point. With the electricals frozen, a sensor's window read is
// its deterministic margin plus one per-window Gaussian noise realization,
// quantized to the 12 detector positions — so each sensor has a
// closed-form tail distribution over positions, the chip-wide minimum's
// tail is the product of the per-sensor tails (one realization per window,
// independent across sensors and windows), and the identity of the first
// sensor achieving the minimum — whose sensitivity the controller's step
// sizing uses — has computable weights per minimum value. Frozen ticks
// sample the controller's input exactly from this joint law instead of
// drawing per-sensor noise; the model is a pure function of frozen chip
// state, so results stay bit-identical across worker counts.
//
// The model is built only as far as ticks read it. Nothing is built when
// no tick reads it (frozenModelRead) or the controller fail-safes on a
// dead sensor or a fully gated chip. Otherwise positions are built up to
// the cutoff, the first whose chip-wide tail is exactly 0: the tick's scan
// u < tail[m+1] cannot pass it, so no tail above it and no argmin row at
// or above it is ever read. Every entry left unbuilt is written as 0, so
// the arrays hold nothing from an earlier refresh.
func (c *Chip) refreshFrozenReadCache() {
	c.frozenAnyDead = false
	c.frozenNoSensors = true
	for _, co := range c.cores {
		if co.state == power.Gated {
			continue
		}
		c.frozenNoSensors = false
		for _, s := range co.cpms {
			if s.Dead() {
				c.frozenAnyDead = true
			}
		}
	}
	if c.frozenAnyDead || c.frozenNoSensors || !c.frozenModelRead() {
		c.clearFrozenModel()
		return
	}
	c.buildFrozenArgmin(c.buildFrozenTails())
}

// clearFrozenModel zeroes every read-model array.
func (c *Chip) clearFrozenModel() {
	clear(c.frozenDetMV)
	clear(c.frozenMVB)
	clear(c.frozenQ)
	clear(c.frozenSuf)
	clear(c.frozenArgW)
	clear(c.frozenTail[:])
}

// frozenModelRead reports whether frozen ticks read the read model: the
// Undervolt loop steers on the reading, and a recorder observes its window
// minimum. Static, Overclock and Manual commands ignore the reading.
func (c *Chip) frozenModelRead() bool {
	return c.rec != nil || c.ctrl.Mode() == firmware.Undervolt
}

// frozenDraws reports whether frozen ticks draw from the frozen stream:
// one uniform each, whether or not anything reads the model, so the
// stream stays aligned across modes and recorders. A chip with a dead
// sensor or every core gated draws nothing: its controller fail-safes.
func (c *Chip) frozenDraws() bool { return !c.frozenAnyDead && !c.frozenNoSensors }

// buildFrozenTails fills every sensor's margin and sensitivity, then the
// per-sensor tails and their chip-wide product position by position, in
// sensor order, until the product is exactly 0. It returns that position,
// the cutoff, and zeroes the tails above it.
func (c *Chip) buildFrozenTails() (cut int) {
	k := 0
	for _, co := range c.cores {
		f := co.dpll.Freq()
		agedMin := co.voltageMin - units.Millivolt(c.agingMV)
		terms := cpm.CoreTerms(&c.cfg.CPM.Law, agedMin, f)
		for _, s := range co.cpms {
			c.frozenDetMV[k] = s.DetMarginMV(terms)
			c.frozenMVB[k] = s.MVPerBit(f)
			c.frozenQ[k*frozenRowLen] = 1
			k++
		}
	}
	c.frozenTail[0] = 1
	invSigma := 1 / (c.cfg.CPM.NoiseMV * math.Sqrt2)
	for b := 1; ; b++ {
		p := 1.0
		k := 0
		for _, co := range c.cores {
			// A gated core's CPMs are off: excluded from the minimum by
			// reading "above everything" with certainty.
			gated := co.state == power.Gated
			for range co.cpms {
				q := 1.0
				switch {
				case gated:
				case b > cpm.MaxValue:
					// Reads clamp to MaxValue: none reaches past it.
					q = 0
				default:
					// Quantization rounds half away from zero, so read >= b
					// exactly when the noisy margin clears (b - target - 1/2)
					// sensitivities; clamping to [0, MaxValue] never moves a
					// read across these thresholds for b in 1..MaxValue.
					t := (float64(b-cpm.CalibTarget)-0.5)*c.frozenMVB[k] - c.frozenDetMV[k]
					q = positionTail(t * invSigma)
				}
				c.frozenQ[k*frozenRowLen+b] = q
				p *= q
				k++
			}
		}
		c.frozenTail[b] = p
		if p == 0 {
			cut = b
			break
		}
	}
	clear(c.frozenTail[cut+1:])
	for k := range c.frozenDetMV {
		clear(c.frozenQ[k*frozenRowLen+cut+1 : (k+1)*frozenRowLen])
	}
	return cut
}

// positionTail is P(read >= b) = erfc(x)/2 for a sensor whose position-b
// threshold sits x·σ√2 above its deterministic margin. Go's math.Erfc
// returns exactly 2 below -6 and exactly 0 from 28 up (TestErfcSaturation
// pins both), so the saturated branches return its bits without the call.
func positionTail(x float64) float64 {
	switch {
	case x < -6:
		return 1
	case x >= 28:
		return 0
	}
	return 0.5 * math.Erfc(x)
}

// buildFrozenArgmin fills the cumulative first-argmin rows below the
// cutoff and zeroes the rest. Sensor k achieves the minimum b first exactly
// when it reads b, every earlier sensor reads above b, and every later one
// reads at least b (mirroring the strict less-than tracking of the
// detailed margin scan). The weights for one b telescope to
// tail[b]-tail[b+1], so the cumulative rows partition each minimum's
// probability interval for the tick path's single draw. Row b reads the
// sensor tails at positions b and b+1, all built for b < cut.
func (c *Chip) buildFrozenArgmin(cut int) {
	ns := len(c.frozenDetMV)
	for b := 0; b < cut; b++ {
		c.frozenSuf[ns] = 1
		for k := ns - 1; k >= 0; k-- {
			c.frozenSuf[k] = c.frozenSuf[k+1] * c.frozenQ[k*frozenRowLen+b]
		}
		pref, cum := 1.0, 0.0
		for k := 0; k < ns; k++ {
			qb, qb1 := c.frozenQ[k*frozenRowLen+b], c.frozenQ[k*frozenRowLen+b+1]
			cum += (qb - qb1) * pref * c.frozenSuf[k+1]
			c.frozenArgW[b*ns+k] = cum
			pref *= qb1
		}
	}
	clear(c.frozenArgW[cut*ns:])
}

// SampleSignature appends the chip's phase signature — chip power and
// MIPS, then per-core frequency, power, and throughput — to buf and
// returns it. The governor's phase detector compares consecutive
// window-averaged signatures; everything here is already maintained by the
// step loop, so building the signature costs no extra model work.
func (c *Chip) SampleSignature(buf []float64) []float64 {
	buf = append(buf, float64(c.lastChipPower), float64(c.TotalMIPS()))
	for _, co := range c.cores {
		buf = append(buf, float64(co.dpll.Freq()), float64(co.lastPower), float64(co.lastMIPS))
	}
	return buf
}

// EmitSampleMode records a sampling-governor fidelity switch in the chip's
// flight-recorder shard: toFast is the direction, ciRel the governor's
// relative CI width at the switch, dist the phase-signature distance that
// (for drops to detailed) triggered it.
func (c *Chip) EmitSampleMode(toFast bool, ciRel, dist float64) {
	if c.rec == nil {
		return
	}
	var dir int64
	if toFast {
		dir = 1
	}
	c.rec.Inc(c.src, obs.CSampleSwitches)
	c.rec.Emit(obs.Event{TimeUS: obs.StampUS(c.timeSec), Kind: obs.KindSampleMode,
		Source: c.src, Core: -1, A: ciRel, B: dist, C: dir})
}
