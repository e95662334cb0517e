// Package stress synthesizes voltage-noise stressmarks: workloads crafted
// to maximize inductive (di/dt) droops, in the spirit of the stress-testing
// literature the paper builds on (AUDIT, voltage viruses — paper refs
// [21][30][32]).
//
// The paper's position is that adaptive guardbanding "deals with di/dt
// noise well" because the DPLLs absorb droops in flight, and that the real
// efficiency limiter is passive drop. A stressmark makes that claim
// testable in this reproduction: the generator produces descriptors with
// pathological alignment behaviour, and the verifier runs them under each
// guardband mode counting absorbed droops versus timing violations.
package stress

import (
	"fmt"
	"math"

	"agsim/internal/chip"
	"agsim/internal/firmware"
	"agsim/internal/workload"
)

// Level selects how hostile the synthesized stressmark is.
type Level int

// Stress levels, from realistic worst application to deliberately
// pathological virus.
const (
	// Heavy matches the noisiest real applications the paper measured
	// (bodytrack-class worst-case events).
	Heavy Level = iota
	// Virus is a hand-crafted resonance virus: maximal current swings
	// aligned across cores at the PDN's sensitive frequency.
	Virus
	// Pathological exceeds anything hardware vendors guardband for; used
	// to demonstrate that the model's DPLL protection has limits and that
	// those limits are observable rather than silent.
	Pathological
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Heavy:
		return "heavy"
	case Virus:
		return "virus"
	case Pathological:
		return "pathological"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Synthesize returns a workload descriptor for the given stress level. The
// descriptors are compute-dense (high activity keeps current high) with
// elevated worst-case droop magnitude and event rate.
func Synthesize(l Level) workload.Descriptor {
	d := workload.Descriptor{
		Name:             fmt.Sprintf("stress-%s", l),
		Suite:            workload.Micro,
		IPC:              2.0,
		MemNsPerInst:     0.002,
		BytesPerInst:     0.05,
		Activity:         0.85,
		ParallelOverhead: 0,
		Sharing:          0,
		WorkGInst:        500,
	}
	switch l {
	case Heavy:
		d.DidtTypicalMV = 9
		d.DidtWorstMV = 30
		d.DroopRatePerSec = 6
	case Virus:
		d.DidtTypicalMV = 12
		d.DidtWorstMV = 34
		d.DroopRatePerSec = 15
	case Pathological:
		d.DidtTypicalMV = 16
		d.DidtWorstMV = 70
		d.DroopRatePerSec = 30
	default:
		panic(fmt.Sprintf("stress: unknown level %d", int(l)))
	}
	if err := d.Validate(); err != nil {
		panic(err) // synthesis must always produce a valid descriptor
	}
	return d
}

// Report is the outcome of one stress run.
type Report struct {
	Level   Level
	Mode    firmware.Mode
	Seconds float64
	// DroopsAbsorbed counts worst-case events the DPLLs covered.
	DroopsAbsorbed int
	// TimingViolations counts events that outran the DPLL authority — on
	// real hardware, guardband failures.
	TimingViolations int
	// MeanUndervoltMV is the average undervolt the firmware still held
	// under stress.
	MeanUndervoltMV float64
	// MinMarginMV is the worst observed ripple-bottom margin above the
	// circuit requirement.
	MinMarginMV float64
}

// Safe reports whether the run completed without timing violations.
func (r Report) Safe() bool { return r.TimingViolations == 0 }

// Run executes the stressmark on all eight cores of a fresh chip for the
// given simulated duration, rounded to whole 1 ms steps, and returns the
// droop accounting. A run shorter than half a step plays none: it reports
// a zero span and a zero mean undervolt.
func Run(l Level, mode firmware.Mode, seconds float64, seed uint64) Report {
	c := chip.MustNew(chip.DefaultConfig("stress", seed))
	d := Synthesize(l)
	for i := 0; i < c.Cores(); i++ {
		c.Place(i, workload.NewThread(d, 1e9, nil))
	}
	c.SetMode(mode)
	c.Settle(2)
	c.ResetDroopStats() // count only steady-state events

	steps := int(math.Round(seconds / chip.DefaultStepSec))
	rep := Report{Level: l, Mode: mode, Seconds: float64(steps) * chip.DefaultStepSec, MinMarginMV: 1e9}
	law := c.Law()
	var uv float64
	for i := 0; i < steps; i++ {
		c.Step(chip.DefaultStepSec)
		uv += float64(c.UndervoltMV())
		for core := 0; core < c.Cores(); core++ {
			m := float64(c.CoreVoltageMin(core) - law.VReq(c.CoreFreq(core)))
			if m < rep.MinMarginMV {
				rep.MinMarginMV = m
			}
		}
	}
	if steps > 0 {
		rep.MeanUndervoltMV = uv / float64(steps)
	}
	rep.DroopsAbsorbed, rep.TimingViolations = c.DroopStats()
	return rep
}
