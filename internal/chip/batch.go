package chip

import (
	"fmt"
	"math"

	"agsim/internal/cpm"
	"agsim/internal/didt"
	"agsim/internal/dpll"
	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/power"
	"agsim/internal/units"
	"agsim/internal/vf"
)

// Batch advances many same-shape chips through structure-of-arrays kernels:
// per-core voltages, frequencies, temperatures, CPM codes and currents live
// in contiguous slices indexed [chipInBatch*cores + core], so the 1 ms
// inner loop runs as flat passes (power → delivery → noise → sense/react →
// bookkeeping) over the whole batch instead of pointer-chased walks over
// per-chip component structs.
//
// Gather lifts chip state into the arrays; Scatter writes it back, leaving
// every chip exactly as the scalar Step/Advance sequence would. Between the
// two, the batch is authoritative and the chips must not be stepped or
// mutated directly.
//
// Bit-identity with the scalar path is by construction, not by tolerance:
// each kernel replicates the scalar arithmetic expression for expression on
// the mirrored state, calls the same pure functions (vf.Law, power.Params,
// pdn.Network, and the CPM read itself: cpm.CoreTerms and cpm.Raw), and
// keeps every RNG-bearing object authoritative — the di/dt model, workload
// threads, CPM read streams and the firmware controller are invoked per
// chip at the same simulated times the scalar lane would invoke them, so
// they consume identical draws in identical order. Chips are computationally independent (cross-chip coupling runs
// through server memory factors computed between segments), which is what
// makes the per-chip ordering inside each pass irrelevant to the result.
//
// What does change versus the scalar lane is event-log interleaving inside
// a shared recorder shard: a node's chips emit pass by pass rather than
// chip by chip, so two chips on one shard interleave their events
// differently. Per-source counters, gauges and each chip's own event
// subsequence are unchanged; see ARCHITECTURE.md "Batched stepping".
//
// A Batch is not safe for concurrent use of overlapping chip ranges; the
// engine in internal/batch partitions work so each worker owns a disjoint
// [lo,hi) range of whole nodes.
type Batch struct {
	chips []*Chip
	cores int
	cfg   Config // shape fields of chips[0]; identity fields unused
	exact bool
	shape string

	// Per-chip state, indexed by position in chips.
	timeSec             []float64
	sinceTick           []float64
	tempC               []units.Celsius
	setPoint            []units.Millivolt
	railLastI           []units.Ampere
	railStuck           []bool
	railStuckI          []units.Ampere
	railLoadline        []float64
	railMaxI            []units.Ampere
	railVMax            []units.Millivolt
	railLSB             []float64
	lastRailV           []units.Millivolt
	prevRailV           []units.Millivolt
	lastChipPower       []units.Watt
	lastCurrent         []units.Ampere
	energyJ             []float64
	agingMV             []float64
	marginViolations    []int
	stable              []int
	lastWindowWorstDidt []float64
	lastHorizonSec      []float64
	lastHorizonReason   []obs.Reason
	lastSample          []didt.Sample
	mode                []firmware.Mode

	// Per-core state, indexed [chip*cores + core].
	state         []power.CoreState
	voltageDC     []units.Millivolt
	voltageMin    []units.Millivolt
	freq          []units.Megahertz
	memFactor     []float64
	issueThrottle []float64
	coreTempC     []units.Celsius
	lastPower     []units.Watt
	lastMIPS      []units.MIPS
	lastDrops     []units.Millivolt
	prevCoreV     []units.Millivolt
	prevCoreF     []units.Megahertz
	maxSlew       []float64
	fastSlewOv    []float64
	droopsAbs     []int // per-batch deltas, folded into the DPLLs at Scatter
	droopsViol    []int

	// Per-sensor state, indexed [(chip*cores + core)*CPMsPerCore + j].
	cpmMVPerBitNom   []float64
	cpmPathOffset    []float64
	cpmNoiseOffset   []float64
	cpmDead          []bool
	cpmStickyMin     []int
	cpmHasSticky     []bool
	lastCPM          []int
	lastWindowSticky []int

	// Step-pass scratch: per-chip slots and per-core windows, so disjoint
	// chip ranges can step concurrently without sharing scratch.
	currents  []units.Ampere
	drops     []units.Millivolt
	profiles  []didt.Profile
	chipPower []units.Watt
	uncoreI   []units.Ampere
	newRailV  []units.Millivolt
}

// NewBatch allocates a batch sized for the given chips and gathers them.
func NewBatch(chips []*Chip) (*Batch, error) {
	if len(chips) == 0 {
		return nil, fmt.Errorf("batch: no chips")
	}
	bt := &Batch{cores: chips[0].Cores()}
	bt.alloc(len(chips))
	if err := bt.Gather(chips); err != nil {
		return nil, err
	}
	return bt, nil
}

func (bt *Batch) alloc(nChips int) {
	n := nChips
	nc := nChips * bt.cores
	ns := nc * CPMsPerCore
	bt.timeSec = make([]float64, n)
	bt.sinceTick = make([]float64, n)
	bt.tempC = make([]units.Celsius, n)
	bt.setPoint = make([]units.Millivolt, n)
	bt.railLastI = make([]units.Ampere, n)
	bt.railStuck = make([]bool, n)
	bt.railStuckI = make([]units.Ampere, n)
	bt.railLoadline = make([]float64, n)
	bt.railMaxI = make([]units.Ampere, n)
	bt.railVMax = make([]units.Millivolt, n)
	bt.railLSB = make([]float64, n)
	bt.lastRailV = make([]units.Millivolt, n)
	bt.prevRailV = make([]units.Millivolt, n)
	bt.lastChipPower = make([]units.Watt, n)
	bt.lastCurrent = make([]units.Ampere, n)
	bt.energyJ = make([]float64, n)
	bt.agingMV = make([]float64, n)
	bt.marginViolations = make([]int, n)
	bt.stable = make([]int, n)
	bt.lastWindowWorstDidt = make([]float64, n)
	bt.lastHorizonSec = make([]float64, n)
	bt.lastHorizonReason = make([]obs.Reason, n)
	bt.lastSample = make([]didt.Sample, n)
	bt.mode = make([]firmware.Mode, n)

	bt.state = make([]power.CoreState, nc)
	bt.voltageDC = make([]units.Millivolt, nc)
	bt.voltageMin = make([]units.Millivolt, nc)
	bt.freq = make([]units.Megahertz, nc)
	bt.memFactor = make([]float64, nc)
	bt.issueThrottle = make([]float64, nc)
	bt.coreTempC = make([]units.Celsius, nc)
	bt.lastPower = make([]units.Watt, nc)
	bt.lastMIPS = make([]units.MIPS, nc)
	bt.lastDrops = make([]units.Millivolt, nc)
	bt.prevCoreV = make([]units.Millivolt, nc)
	bt.prevCoreF = make([]units.Megahertz, nc)
	bt.maxSlew = make([]float64, nc)
	bt.fastSlewOv = make([]float64, nc)
	bt.droopsAbs = make([]int, nc)
	bt.droopsViol = make([]int, nc)

	bt.cpmMVPerBitNom = make([]float64, ns)
	bt.cpmPathOffset = make([]float64, ns)
	bt.cpmNoiseOffset = make([]float64, ns)
	bt.cpmDead = make([]bool, ns)
	bt.cpmStickyMin = make([]int, ns)
	bt.cpmHasSticky = make([]bool, ns)
	bt.lastCPM = make([]int, ns)
	bt.lastWindowSticky = make([]int, ns)

	bt.currents = make([]units.Ampere, nc)
	bt.drops = make([]units.Millivolt, nc)
	bt.profiles = make([]didt.Profile, nc)
	bt.chipPower = make([]units.Watt, n)
	bt.uncoreI = make([]units.Ampere, n)
	bt.newRailV = make([]units.Millivolt, n)
}

// Gather lifts the chips' state into the arrays. The chip set may differ
// from the previous one (pooled engines re-bind batches between runs) but
// must match the batch's size and share one configuration shape.
func (bt *Batch) Gather(chips []*Chip) error {
	if len(chips) == 0 {
		return fmt.Errorf("batch: no chips")
	}
	if len(chips) != len(bt.timeSec) {
		return fmt.Errorf("batch: gathering %d chips into a batch sized for %d", len(chips), len(bt.timeSec))
	}
	key := chips[0].ShapeKey()
	for _, c := range chips {
		if c.Cores() != bt.cores && bt.cores != 0 {
			return fmt.Errorf("batch: chip %s has %d cores, batch has %d", c.Name(), c.Cores(), bt.cores)
		}
		if k := c.ShapeKey(); k != key {
			return fmt.Errorf("batch: chip %s shape %q differs from %q", c.Name(), k, key)
		}
	}
	bt.chips = chips
	bt.cfg = chips[0].cfg
	bt.exact = chips[0].exact
	bt.shape = key

	for b, c := range chips {
		bt.timeSec[b] = c.timeSec
		bt.sinceTick[b] = c.sinceTick
		bt.tempC[b] = c.tempC
		bt.setPoint[b] = c.rail.SetPoint()
		bt.railLastI[b] = c.rail.LastCurrent()
		bt.railStuck[b], bt.railStuckI[b] = c.rail.SenseFault()
		bt.railLoadline[b] = c.rail.LoadlineMilliohm
		bt.railMaxI[b] = c.rail.MaxCurrent
		bt.railVMax[b] = c.rail.VMax
		bt.railLSB[b] = c.rail.SenseLSB
		bt.lastRailV[b] = c.lastRailV
		bt.prevRailV[b] = c.prevRailV
		bt.lastChipPower[b] = c.lastChipPower
		bt.lastCurrent[b] = c.lastCurrent
		bt.energyJ[b] = c.energyJ
		bt.agingMV[b] = c.agingMV
		bt.marginViolations[b] = c.marginViolations
		bt.stable[b] = c.stable
		bt.lastWindowWorstDidt[b] = c.lastWindowWorstDidt
		bt.lastHorizonSec[b] = c.lastHorizonSec
		bt.lastHorizonReason[b] = c.lastHorizonReason
		bt.lastSample[b] = c.lastSample
		bt.mode[b] = c.ctrl.Mode()

		base := b * bt.cores
		for i, co := range c.cores {
			idx := base + i
			bt.state[idx] = co.state
			bt.voltageDC[idx] = co.voltageDC
			bt.voltageMin[idx] = co.voltageMin
			bt.freq[idx] = co.dpll.Freq()
			bt.memFactor[idx] = co.memFactor
			bt.issueThrottle[idx] = co.issueThrottle
			bt.coreTempC[idx] = co.tempC
			bt.lastPower[idx] = co.lastPower
			bt.lastMIPS[idx] = co.lastMIPS
			bt.lastDrops[idx] = c.lastDrops[i]
			bt.prevCoreV[idx] = c.prevCoreV[i]
			bt.prevCoreF[idx] = c.prevCoreF[i]
			bt.maxSlew[idx] = co.dpll.MaxSlewFracPerStep
			bt.fastSlewOv[idx] = co.dpll.FastSlewFracOverride
			bt.droopsAbs[idx] = 0
			bt.droopsViol[idx] = 0
			sbase := idx * CPMsPerCore
			for j, s := range co.cpms {
				si := sbase + j
				bt.cpmMVPerBitNom[si], bt.cpmPathOffset[si], bt.cpmNoiseOffset[si],
					bt.cpmDead[si], bt.cpmStickyMin[si], bt.cpmHasSticky[si] = s.BatchState()
				bt.lastCPM[si] = co.lastCPM[j]
				bt.lastWindowSticky[si] = co.lastWindowSticky[j]
			}
		}
	}
	return nil
}

// Scatter writes the arrays back into the chips, leaving each exactly as
// the equivalent scalar stepping sequence would. The batch may be
// re-gathered (same chips or a fresh same-shape set) afterwards.
func (bt *Batch) Scatter() {
	for b, c := range bt.chips {
		c.timeSec = bt.timeSec[b]
		c.sinceTick = bt.sinceTick[b]
		c.tempC = bt.tempC[b]
		c.rail.Command(bt.setPoint[b]) // set point stays in (0,VMax]; clamp is identity
		c.rail.RestoreCurrent(bt.railLastI[b])
		c.lastRailV = bt.lastRailV[b]
		c.prevRailV = bt.prevRailV[b]
		c.lastChipPower = bt.lastChipPower[b]
		c.lastCurrent = bt.lastCurrent[b]
		c.energyJ = bt.energyJ[b]
		c.marginViolations = bt.marginViolations[b]
		c.stable = bt.stable[b]
		c.lastWindowWorstDidt = bt.lastWindowWorstDidt[b]
		c.lastHorizonSec = bt.lastHorizonSec[b]
		c.lastHorizonReason = bt.lastHorizonReason[b]
		c.lastSample = bt.lastSample[b]

		base := b * bt.cores
		for i, co := range c.cores {
			idx := base + i
			co.voltageDC = bt.voltageDC[idx]
			co.voltageMin = bt.voltageMin[idx]
			co.memFactor = bt.memFactor[idx]
			co.tempC = bt.coreTempC[idx]
			co.lastPower = bt.lastPower[idx]
			co.lastMIPS = bt.lastMIPS[idx]
			c.lastDrops[i] = bt.lastDrops[idx]
			c.prevCoreV[i] = bt.prevCoreV[idx]
			c.prevCoreF[i] = bt.prevCoreF[idx]
			co.dpll.SetFreq(bt.freq[idx]) // kernels keep freq in [FMin,FCeil]; clamp is identity
			co.dpll.AddDroopStats(bt.droopsAbs[idx], bt.droopsViol[idx])
			bt.droopsAbs[idx] = 0
			bt.droopsViol[idx] = 0
			sbase := idx * CPMsPerCore
			for j, s := range co.cpms {
				si := sbase + j
				s.RestoreSticky(bt.cpmStickyMin[si], bt.cpmHasSticky[si])
				co.lastCPM[j] = bt.lastCPM[si]
				co.lastWindowSticky[j] = bt.lastWindowSticky[si]
			}
		}
	}
}

// Chips returns the number of chips in the batch.
func (bt *Batch) Chips() int { return len(bt.chips) }

// CoresPerChip returns the per-chip core count.
func (bt *Batch) CoresPerChip() int { return bt.cores }

// ShapeKey returns the common configuration shape of the batched chips.
func (bt *Batch) ShapeKey() string { return bt.shape }

// ChipPower returns chip b's last-step power (chip.ChipPower).
func (bt *Batch) ChipPower(b int) units.Watt { return bt.lastChipPower[b] }

// ChipTotalMIPS returns chip b's whole-chip throughput, summing the cores
// in index order exactly as chip.TotalMIPS does.
func (bt *Batch) ChipTotalMIPS(b int) units.MIPS {
	var total units.MIPS
	base := b * bt.cores
	for i := 0; i < bt.cores; i++ {
		total += bt.lastMIPS[base+i]
	}
	return total
}

// TimeSec returns chip b's simulated time.
func (bt *Batch) TimeSec(b int) float64 { return bt.timeSec[b] }

// ChipEnergyJ returns chip b's accumulated energy (chip.EnergyJ). While the
// batch is live the arrays are authoritative — the chip object's own
// accumulator is stale until Scatter.
func (bt *Batch) ChipEnergyJ(b int) float64 { return bt.energyJ[b] }

// ResetEnergy clears chip b's energy accumulator (chip.ResetEnergy on the
// arrays), so a measurement span can start at zero without a scatter.
func (bt *Batch) ResetEnergy(b int) { bt.energyJ[b] = 0 }

// CoreFreq returns core i of chip b's clock frequency; with SetMemFactor it
// lets the batch act as a server.MemFactorTarget.
func (bt *Batch) CoreFreq(b, i int) units.Megahertz { return bt.freq[b*bt.cores+i] }

// SetMemFactor mirrors chip.SetMemFactor on the arrays: clamp below 1, and
// only a changed value invalidates the chip's quiescence evidence.
func (bt *Batch) SetMemFactor(b, i int, f float64) {
	if f < 1 {
		f = 1
	}
	idx := b*bt.cores + i
	if bt.memFactor[idx] != f {
		bt.stable[b] = 0
		bt.memFactor[idx] = f
	}
}

// profileWindow returns chip b's empty didt profile scratch, capacity for
// one profile per core, disjoint from every other chip's window.
func (bt *Batch) profileWindow(b int) []didt.Profile {
	base := b * bt.cores
	return bt.profiles[base : base : base+bt.cores]
}

// StepRange advances chips [lo,hi) by one dtSec micro-step as flat passes,
// mirroring Chip.Step phase for phase.
//
// Every pass works through per-chip window slices (one shared
// [base:base+C] slicing expression per array) instead of absolute
// [chip*cores+core] indices: the lengths of sibling windows are the same
// SSA value, so the compiler's prove pass eliminates the bounds check on
// every access. The checks are the batched lane's only per-access cost
// over the scalar kernel's direct field loads — dropping them is what
// holds serial StepRange at parity with Chip.Step per chip.
func (bt *Batch) StepRange(lo, hi int, dtSec float64) {
	if dtSec <= 0 {
		panic(fmt.Sprintf("batch: non-positive step %v", dtSec))
	}
	C := bt.cores
	law := &bt.cfg.Law

	// Pass 1: workload conditions and per-core power at last-known voltages.
	for b := lo; b < hi; b++ {
		c := bt.chips[b]
		base := b * C
		end := base + C
		st := bt.state[base:end]
		fr := bt.freq[base:end]
		vdc := bt.voltageDC[base:end]
		ctw := bt.coreTempC[base:end]
		lpw := bt.lastPower[base:end]
		cur := bt.currents[base:end]
		mf := bt.memFactor[base:end]
		it := bt.issueThrottle[base:end]
		cs := c.cores[:len(st)]
		var chipPower units.Watt
		for i := range st {
			act, util := demandAt(cs[i], st[i], fr[i], mf[i], it[i])
			p := bt.cfg.Power.Core(st[i], vdc[i], fr[i], act, util, ctw[i])
			lpw[i] = p
			chipPower += p
			cur[i] = units.Current(p, vdc[i])
		}
		bt.chipPower[b] = chipPower
	}

	// Pass 2: power delivery — loadline at the VRM, then the on-chip PDN.
	for b := lo; b < hi; b++ {
		c := bt.chips[b]
		base := b * C
		end := base + C
		uncoreP := bt.cfg.Power.Uncore(bt.lastRailV[b])
		bt.chipPower[b] += uncoreP
		uncoreI := units.Current(uncoreP, bt.lastRailV[b])
		var total units.Ampere
		for _, a := range bt.currents[base:end] {
			total += a
		}
		total += uncoreI
		bt.uncoreI[b] = uncoreI
		// vrm.Rail.Output, mirrored on the arrays.
		bt.railLastI[b] = total
		v := bt.setPoint[b] - units.IRDrop(total, bt.railLoadline[b])
		if total > bt.railMaxI[b] {
			v -= units.Millivolt(float64(total - bt.railMaxI[b]))
		}
		if v < 0 {
			v = 0
		}
		bt.newRailV[b] = v
		c.plane.DropsInto(bt.drops[base:end:end], bt.currents[base:end:end], uncoreI)
	}

	// Pass 3: chip-wide di/dt noise; the models stay authoritative and
	// consume their streams at the same simulated times as the scalar lane.
	for b := lo; b < hi; b++ {
		c := bt.chips[b]
		base := b * C
		end := base + C
		st := bt.state[base:end]
		it := bt.issueThrottle[base:end]
		cs := c.cores[:len(st)]
		profiles := bt.profileWindow(b)
		for i := range st {
			if st[i] == power.Active {
				profiles = append(profiles, didtProfileAt(cs[i], it[i]))
			}
		}
		sample := c.noise.Step(dtSec, profiles)
		bt.lastSample[b] = sample
		if c.rec != nil && sample.Events > 0 {
			c.rec.Add(c.src, obs.CDidtEvents, uint64(sample.Events))
			c.rec.Observe(obs.HDroopDepthMV, sample.WorstEventMV)
			c.rec.Emit(obs.Event{TimeUS: obs.StampUS(bt.timeSec[b] + dtSec), Kind: obs.KindDroop,
				Source: c.src, Core: -1, A: sample.WorstEventMV, B: sample.TypicalMV, C: int64(sample.Events)})
		}
	}

	// Pass 4: per-core sense and react — voltage, margin check, droop
	// reaction, CPM observation, DPLL fast loop, thread advance.
	for b := lo; b < hi; b++ {
		c := bt.chips[b]
		base := b * C
		end := base + C
		st := bt.state[base:end]
		fr := bt.freq[base:end]
		vdc := bt.voltageDC[base:end]
		vmin := bt.voltageMin[base:end]
		drp := bt.drops[base:end]
		mf := bt.memFactor[base:end]
		it := bt.issueThrottle[base:end]
		lm := bt.lastMIPS[base:end]
		msl := bt.maxSlew[base:end]
		fso := bt.fastSlewOv[base:end]
		dab := bt.droopsAbs[base:end]
		dvl := bt.droopsViol[base:end]
		cs := c.cores[:len(st)]
		sample := bt.lastSample[b]
		railV := bt.newRailV[b]
		mode := bt.mode[b]
		adaptive := mode == firmware.Undervolt || mode == firmware.Overclock
		aging := units.Millivolt(bt.agingMV[b])
		timeEnd := bt.timeSec[b] + dtSec
		cpmLaw := &bt.cfg.CPM.Law
		for i := range st {
			v := railV - drp[i]
			if v < 1 {
				v = 1 // rail collapse; keep the model defined
			}
			vdc[i] = v
			vmin[i] = v - units.Millivolt(sample.TypicalMV)

			agedMin := vmin[i] - aging
			if st[i] != power.Gated && law.MarginMV(agedMin, fr[i]) < 0 {
				bt.marginViolations[b]++
				c.rec.Inc(c.src, obs.CMarginViolations)
			}

			droopLatches := false
			if sample.Events > 0 && st[i] != power.Gated {
				extra := sample.WorstEventMV - sample.TypicalMV
				if extra > 0 {
					if adaptive {
						if absorbDroopAt(law, fr[i], fso[i], agedMin, extra) {
							dab[i]++
						} else {
							dvl[i]++
							droopLatches = true
						}
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

			if st[i] != power.Gated {
				f := fr[i]
				sb := (base + i) * CPMsPerCore
				se := sb + CPMsPerCore
				dead := bt.cpmDead[sb:se]
				poff := bt.cpmPathOffset[sb:se]
				noff := bt.cpmNoiseOffset[sb:se]
				mvb := bt.cpmMVPerBitNom[sb:se]
				smin := bt.cpmStickyMin[sb:se]
				hst := bt.cpmHasSticky[sb:se]
				lcpm := bt.lastCPM[sb:se]
				terms := cpm.CoreTerms(cpmLaw, agedMin, f)
				for j := range dead {
					raw := cpm.Raw(terms, dead[j], poff[j], noff[j], mvb[j])
					if !hst[j] || raw < smin[j] {
						smin[j] = raw
						hst[j] = true
					}
					lcpm[j] = raw
				}
				if droopLatches {
					droopV := agedMin + units.Millivolt(sample.TypicalMV-sample.WorstEventMV)
					droop := cpm.CoreTerms(cpmLaw, droopV, f)
					for j := range dead {
						raw := cpm.Raw(droop, dead[j], poff[j], noff[j], mvb[j]) // sticky latch only
						if !hst[j] || raw < smin[j] {
							smin[j] = raw
							hst[j] = true
						}
					}
				}
			}

			switch mode {
			case firmware.Overclock:
				if st[i] != power.Gated {
					fr[i] = slewTowardAt(law, fr[i], msl[i], law.FMax(agedMin-law.ResidualMV))
				}
			case firmware.Undervolt:
				if st[i] != power.Gated {
					target := law.FMax(agedMin - law.ResidualMV)
					if target > law.FNom {
						target = law.FNom
					}
					fr[i] = slewTowardAt(law, fr[i], msl[i], target)
				}
			}

			lm[i] = advanceThreadsAt(c, cs[i], st[i], fr[i], mf[i], it[i], timeEnd, dtSec)
		}
	}

	// Pass 5: bookkeeping — path loss, energy, thermals, stability,
	// telemetry, and the firmware tick on its 32 ms boundary.
	for b := lo; b < hi; b++ {
		c := bt.chips[b]
		base := b * C
		end := base + C
		cur := bt.currents[base:end]
		drp := bt.drops[base:end]
		lpw := bt.lastPower[base:end]
		vdc := bt.voltageDC[base:end]
		fr := bt.freq[base:end]
		ctw := bt.coreTempC[base:end]
		pcv := bt.prevCoreV[base:end]
		pcf := bt.prevCoreF[base:end]
		total := bt.railLastI[b]
		railV := bt.newRailV[b]
		chipPower := bt.chipPower[b]
		pathLoss := units.Watt((float64(bt.setPoint[b]-railV)*float64(total) +
			float64(c.plane.GlobalDropMV(total))*float64(bt.uncoreI[b])) / 1000)
		for i := range drp {
			pathLoss += units.Watt(float64(drp[i]) * float64(cur[i]) / 1000)
		}
		chipPower += pathLoss
		bt.lastChipPower[b] = chipPower
		bt.lastCurrent[b] = total
		bt.lastRailV[b] = railV
		copy(bt.lastDrops[base:end], drp)
		bt.energyJ[b] += float64(chipPower) * dtSec

		// stepThermal, mirrored.
		alpha := dtSec / bt.cfg.ThermalTauSec
		if alpha > 1 {
			alpha = 1
		}
		packageTarget := bt.cfg.AmbientC + units.Celsius(bt.cfg.ThermalResCPerW*float64(chipPower))
		bt.tempC[b] += units.Celsius(alpha * float64(packageTarget-bt.tempC[b]))
		for i := range ctw {
			target := packageTarget + units.Celsius(bt.cfg.ThermalResCoreCPerW*float64(lpw[i]))
			ctw[i] += units.Celsius(alpha * float64(target-ctw[i]))
		}

		bt.timeSec[b] += dtSec

		// updateStability, mirrored.
		ok := math.Abs(float64(bt.lastRailV[b]-bt.prevRailV[b])) <= stableEpsMV
		for i := range vdc {
			if ok {
				if math.Abs(float64(vdc[i]-pcv[i])) > stableEpsMV ||
					math.Abs(float64(fr[i]-pcf[i])) > stableEpsMHz {
					ok = false
				}
			}
			pcv[i] = vdc[i]
			pcf[i] = fr[i]
		}
		bt.prevRailV[b] = bt.lastRailV[b]
		if ok {
			bt.stable[b]++
		} else {
			bt.stable[b] = 0
		}

		if r := c.rec; r != nil {
			r.Inc(c.src, obs.CMicroSteps)
			r.SetGauge(c.src, obs.GTimeSec, bt.timeSec[b])
			r.SetGauge(c.src, obs.GRailMV, float64(railV))
			r.SetGauge(c.src, obs.GSetPointMV, float64(bt.setPoint[b]))
			r.SetGauge(c.src, obs.GPowerW, float64(chipPower))
			r.SetGauge(c.src, obs.GTempC, float64(bt.tempC[b]))
			r.SetGauge(c.src, obs.GFreqMHz, float64(bt.freq[base]))
			tUS := obs.StampUS(bt.timeSec[b])
			c.tsPower.Push(tUS, float64(chipPower))
			c.tsFreq.Push(tUS, float64(bt.freq[base]))
			c.tsRail.Push(tUS, float64(railV))
		}

		bt.sinceTick[b] += dtSec
		if bt.sinceTick[b]+gridSnapSec >= firmware.TickSeconds {
			bt.sinceTick[b] = 0
			bt.firmwareTick(b)
		}
	}
}

// Step advances the whole batch by one micro-step.
func (bt *Batch) Step(dtSec float64) { bt.StepRange(0, len(bt.chips), dtSec) }

// demandAt mirrors Core.workloadDemand; threads stay object-authoritative
// while the array state rides in as plain values so the hot loops index
// only their own bounds-check-free windows.
func demandAt(co *Core, state power.CoreState, f units.Megahertz, memFactor, issueThrottle float64) (activity, utilization float64) {
	if state != power.Active {
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
		utilSum += th.Desc.Utilization(f, memFactor, smt)
	}
	if live == 0 {
		return 0, 0
	}
	utilization = utilSum * issueThrottle
	if utilization > 1 {
		utilization = 1
	}
	return actSum / float64(live), utilization
}

// didtProfileAt mirrors Core.didtProfile.
func didtProfileAt(co *Core, issueThrottle float64) didt.Profile {
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
	p.TypicalMV *= issueThrottle
	p.WorstMV *= issueThrottle
	return p
}

// advanceThreadsAt mirrors Core.advanceThreads and returns the core's MIPS
// for the step; the threads themselves retire work through their own
// methods so their RNG streams advance identically.
func advanceThreadsAt(c *Chip, co *Core, state power.CoreState, f units.Megahertz,
	memFactor, issueThrottle, timeEnd, dtSec float64) units.MIPS {
	if state != power.Active {
		return 0
	}
	smt := float64(len(co.threads))
	var mips float64
	for _, th := range co.threads {
		if th.Done() {
			continue
		}
		retired, _ := th.Step(dtSec*issueThrottle, f, memFactor, smt)
		mips += retired * 1000 / dtSec // GInst per step back to MIPS
		if c.rec != nil && th.Done() {
			c.rec.Inc(c.src, obs.CThreadsCompleted)
			c.rec.Emit(obs.Event{TimeUS: obs.StampUS(timeEnd), Kind: obs.KindThreadDone,
				Source: c.src, Core: int32(co.Index)})
		}
	}
	return units.MIPS(mips)
}

// absorbDroopAt mirrors dpll.AbsorbDroop; the caller accumulates the
// outcome deltas that Scatter folds back into the DPLL counters. The law
// rides behind a pointer — an 80-byte copy per call would dominate the
// droop path.
func absorbDroopAt(law *vf.Law, f units.Megahertz, fastSlewOv float64, v units.Millivolt, depthMV float64) bool {
	margin := float64(law.MarginMV(v, f))
	slew := dpll.FastSlewFrac
	if fastSlewOv > 0 {
		slew = fastSlewOv
	}
	relief := slew * float64(f) * law.SlopeAt(f)
	return margin+relief >= depthMV
}

// slewTowardAt mirrors dpll.SlewToward, returning the slewed frequency.
func slewTowardAt(law *vf.Law, f units.Megahertz, maxSlew float64, target units.Megahertz) units.Megahertz {
	target = units.ClampMHz(target, law.FMin, law.FCeil)
	maxDelta := units.Megahertz(float64(f) * maxSlew)
	switch {
	case target > f+maxDelta:
		return f + maxDelta
	case target < f-maxDelta:
		return f - maxDelta
	default:
		return target
	}
}

// senseCurrent mirrors vrm.Rail.SenseCurrent on the arrays.
func (bt *Batch) senseCurrent(b int) units.Ampere {
	if bt.railStuck[b] {
		return bt.railStuckI[b]
	}
	if bt.railLSB[b] <= 0 {
		return bt.railLastI[b]
	}
	steps := float64(int(float64(bt.railLastI[b])/bt.railLSB[b] + 0.5))
	return units.Ampere(steps * bt.railLSB[b])
}

// firmwareTick mirrors Chip.firmwareTick: the margin reading comes from the
// arrays, the controller (which owns tick counting and mode policy) stays
// authoritative, and the per-window CPM noise redraw runs through each
// sensor's own stream.
func (bt *Batch) firmwareTick(b int) {
	c := bt.chips[b]
	base := b * bt.cores
	bt.stable[b] = 0 // markDirty

	reading := firmware.MarginReading{
		MinCPM:       cpm.MaxValue,
		MinStickyCPM: cpm.MaxValue,
		MVPerBit:     21,
		NoSensors:    true,
		CurrentA:     float64(bt.senseCurrent(b)),
	}
	for i := 0; i < bt.cores; i++ {
		idx := base + i
		if bt.state[idx] == power.Gated {
			continue
		}
		reading.NoSensors = false
		fScale := float64(bt.freq[idx]) / float64(bt.cfg.CPM.Law.FNom)
		sbase := idx * CPMsPerCore
		for j := 0; j < CPMsPerCore; j++ {
			s := sbase + j
			if bt.cpmDead[s] {
				reading.AnyDead = true
			}
			if v := bt.lastCPM[s]; v < reading.MinCPM {
				reading.MinCPM = v
				reading.MVPerBit = cpm.MVPerBitAt(bt.cpmMVPerBitNom[s], fScale)
			}
			if bt.cpmHasSticky[s] && bt.cpmStickyMin[s] < reading.MinStickyCPM {
				reading.MinStickyCPM = bt.cpmStickyMin[s]
			}
		}
	}
	old := bt.setPoint[b]
	next := c.ctrl.VoltageCommand(old, reading)
	if bt.mode[b] == firmware.Undervolt {
		// vrm.Rail.Command, mirrored.
		v := next
		if v > bt.railVMax[b] {
			v = bt.railVMax[b]
		}
		if v < 1 {
			v = 1
		}
		bt.setPoint[b] = v
	}
	if r := c.rec; r != nil {
		r.Inc(c.src, obs.CFirmwareTicks)
		r.Observe(obs.HWindowMinCPM, float64(reading.MinStickyCPM))
		var dead int64
		if reading.AnyDead {
			dead = 1
		}
		r.Emit(obs.Event{TimeUS: obs.StampUS(bt.timeSec[b]), Kind: obs.KindWindow,
			Source: c.src, Core: -1, A: float64(reading.MinCPM), B: float64(reading.MinStickyCPM), C: dead})
		if bt.mode[b] == firmware.Undervolt && next != old {
			r.Inc(c.src, obs.CRailCommands)
			r.Emit(obs.Event{TimeUS: obs.StampUS(bt.timeSec[b]), Kind: obs.KindDVFS,
				Source: c.src, Core: -1, A: float64(next), B: float64(old), C: -1})
		}
		c.emitAttrib(r, obs.StampUS(bt.timeSec[b]), next)
	}
	// clearStickies, mirrored: each sensor's StickyReset draws the next
	// window's noise from its own stream in the scalar order (core-major,
	// sensor-minor); the redrawn offset is re-gathered immediately.
	for i := 0; i < bt.cores; i++ {
		co := c.cores[i]
		sbase := (base + i) * CPMsPerCore
		for j := 0; j < CPMsPerCore; j++ {
			s := sbase + j
			if bt.cpmHasSticky[s] {
				bt.lastWindowSticky[s] = bt.cpmStickyMin[s]
			} else {
				bt.lastWindowSticky[s] = cpm.MaxValue
			}
			co.cpms[j].StickyReset()
			bt.cpmNoiseOffset[s] = co.cpms[j].NoiseOffsetMV()
			bt.cpmHasSticky[s] = false
			bt.cpmStickyMin[s] = 0
		}
	}
	bt.lastWindowWorstDidt[b] = c.noise.WorstSinceReset()
	c.noise.StickyReset()
}

// Quiescent mirrors Chip.Quiescent for chip b.
func (bt *Batch) Quiescent(b int) bool {
	if bt.exact || bt.stable[b] < quiescentAfter {
		return false
	}
	mode := bt.mode[b]
	if mode != firmware.Overclock && mode != firmware.Undervolt {
		return true
	}
	law := &bt.cfg.Law
	base := b * bt.cores
	end := base + bt.cores
	st := bt.state[base:end]
	fr := bt.freq[base:end]
	vmin := bt.voltageMin[base:end]
	aging := units.Millivolt(bt.agingMV[b])
	for i := range st {
		if st[i] == power.Gated {
			continue
		}
		agedMin := vmin[i] - aging
		target := law.FMax(agedMin - law.ResidualMV)
		if mode == firmware.Undervolt && target > law.FNom {
			target = law.FNom
		}
		// dpll.SettledWithin, mirrored.
		target = units.ClampMHz(target, law.FMin, law.FCeil)
		delta := float64(target - fr[i])
		if !(delta <= stableEpsMHz && delta >= -stableEpsMHz) {
			return false
		}
	}
	return true
}

// MicroStepSec mirrors Chip.MicroStepSec for chip b.
func (bt *Batch) MicroStepSec(b int) float64 {
	k := math.Floor(bt.timeSec[b]/DefaultStepSec + 0.5)
	frac := bt.timeSec[b] - k*DefaultStepSec
	if frac > gridSnapSec {
		return (k+1)*DefaultStepSec - bt.timeSec[b]
	}
	if frac < -gridSnapSec {
		return k*DefaultStepSec - bt.timeSec[b]
	}
	return DefaultStepSec
}

// HorizonSec mirrors Chip.HorizonSec for chip b, recording the horizon and
// its reason for MacroStepRange's leap attribution.
func (bt *Batch) HorizonSec(b int, maxSec float64) float64 {
	c := bt.chips[b]
	h := maxSec
	reason := obs.ReasonCap
	if tt := firmware.TickSeconds - bt.sinceTick[b] - DefaultStepSec; tt < h {
		h = tt
		reason = obs.ReasonTick
	}
	profiles := bt.profileWindow(b)
	base := b * bt.cores
	end := base + bt.cores
	st := bt.state[base:end]
	fr := bt.freq[base:end]
	mf := bt.memFactor[base:end]
	it := bt.issueThrottle[base:end]
	for i := range st {
		if st[i] != power.Active {
			continue
		}
		co := c.cores[i]
		profiles = append(profiles, didtProfileAt(co, it[i]))
		f := fr[i]
		smt := float64(len(co.threads))
		inv := 1 / it[i]
		for _, th := range co.threads {
			if th.Done() {
				continue
			}
			if tc := th.TimeToCompletion(f, mf[i], smt) * inv * (1 - 1e-9); tc < h {
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
		tw += didt.WobbleWindowSec
	}
	if tw < h {
		h = tw
		reason = obs.ReasonWobble
	}
	bt.lastHorizonSec[b] = h
	bt.lastHorizonReason[b] = reason
	return h
}

// MacroStepRange leaps chips [lo,hi) by h seconds, mirroring Chip.MacroStep.
// Every chip in the range must be quiescent with h within its horizon.
func (bt *Batch) MacroStepRange(lo, hi int, h float64) {
	if h <= 0 {
		panic(fmt.Sprintf("batch: non-positive macro-step %v", h))
	}
	C := bt.cores
	law := &bt.cfg.Law
	for b := lo; b < hi; b++ {
		c := bt.chips[b]
		base := b * C
		end := base + C
		st := bt.state[base:end]
		fr := bt.freq[base:end]
		mf := bt.memFactor[base:end]
		it := bt.issueThrottle[base:end]
		lm := bt.lastMIPS[base:end]
		vmin := bt.voltageMin[base:end]
		lpw := bt.lastPower[base:end]
		ctw := bt.coreTempC[base:end]
		cs := c.cores[:len(st)]

		profiles := bt.profileWindow(b)
		for i := range st {
			if st[i] == power.Active {
				profiles = append(profiles, didtProfileAt(cs[i], it[i]))
			}
		}
		timeEnd := bt.timeSec[b] + h
		for i := range st {
			lm[i] = advanceThreadsAt(c, cs[i], st[i], fr[i], mf[i], it[i], timeEnd, h)
		}
		sample := c.noise.Step(h, profiles)
		if sample.Events > 0 {
			panic(fmt.Sprintf("batch: chip %s: di/dt event inside a %v s macro-step (horizon bug)", c.Name(), h))
		}
		bt.lastSample[b] = sample

		steps := int(h/DefaultStepSec + 0.5)
		if steps > 0 {
			aging := units.Millivolt(bt.agingMV[b])
			for i := range st {
				if st[i] == power.Gated {
					continue
				}
				agedMin := vmin[i] - aging
				if law.MarginMV(agedMin, fr[i]) < 0 {
					bt.marginViolations[b] += steps
				}
			}
		}

		bt.energyJ[b] += float64(bt.lastChipPower[b]) * h

		// macroThermal, mirrored.
		decay := 1 - math.Exp(-h/bt.cfg.ThermalTauSec)
		packageTarget := bt.cfg.AmbientC + units.Celsius(bt.cfg.ThermalResCPerW*float64(bt.lastChipPower[b]))
		bt.tempC[b] += units.Celsius(decay * float64(packageTarget-bt.tempC[b]))
		for i := range ctw {
			target := packageTarget + units.Celsius(bt.cfg.ThermalResCoreCPerW*float64(lpw[i]))
			ctw[i] += units.Celsius(decay * float64(target-ctw[i]))
		}

		bt.timeSec[b] += h
		if r := c.rec; r != nil {
			reason := bt.lastHorizonReason[b]
			if h < bt.lastHorizonSec[b]-1e-12 {
				reason = obs.ReasonExternal
			}
			r.Inc(c.src, obs.CMacroSteps)
			r.Observe(obs.HLeapSec, h)
			r.SetGauge(c.src, obs.GTimeSec, bt.timeSec[b])
			r.Emit(obs.Event{TimeUS: obs.StampUS(bt.timeSec[b]), Kind: obs.KindLeap,
				Source: c.src, Core: -1, A: h, C: int64(reason)})
			// Leap backfill, mirroring Chip.MacroStep's Fill calls exactly
			// so scalar and batched series stay bit-identical.
			t1 := obs.StampUS(bt.timeSec[b])
			t0 := obs.StampUS(bt.timeSec[b] - h)
			c.tsPower.Fill(t0, t1, float64(bt.lastChipPower[b]), stepGridUS)
			c.tsFreq.Fill(t0, t1, float64(bt.freq[base]), stepGridUS)
			c.tsRail.Fill(t0, t1, float64(bt.lastRailV[b]), stepGridUS)
		}

		bt.stable[b] = 0
		bt.sinceTick[b] += h
		if bt.sinceTick[b] >= firmware.TickSeconds {
			panic(fmt.Sprintf("batch: chip %s: macro-step crossed the firmware tick (horizon bug)", c.Name()))
		}
	}
}

// AdvanceChip mirrors Chip.Advance for a single batched chip: one macro
// leap when quiescent, one grid-aligned micro-step otherwise. The engine
// uses the range kernels directly; this is the standalone-chip form.
func (bt *Batch) AdvanceChip(b int, maxSec float64) float64 {
	if maxSec <= 0 {
		panic(fmt.Sprintf("batch: non-positive advance %v", maxSec))
	}
	micro := bt.MicroStepSec(b)
	if maxSec < micro {
		bt.StepRange(b, b+1, maxSec)
		return maxSec
	}
	if !bt.Quiescent(b) {
		bt.StepRange(b, b+1, micro)
		return micro
	}
	h := bt.HorizonSec(b, maxSec)
	if h <= micro {
		bt.StepRange(b, b+1, micro)
		return micro
	}
	bt.MacroStepRange(b, b+1, h)
	return h
}
