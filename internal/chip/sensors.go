package chip

import (
	"agsim/internal/power"
	"agsim/internal/units"
)

// This file is the chip's sensor surface: everything AMESTER-style
// telemetry (and through it, the paper's methodology) can observe.

// ChipPower returns the last step's total Vdd-rail power, as the server's
// physical power sensor reports it (paper §3.2: "we measure the
// microprocessor Vdd rail power by reading physical sensors").
func (c *Chip) ChipPower() units.Watt { return c.lastChipPower }

// RailVoltage returns the VRM output voltage after the loadline.
func (c *Chip) RailVoltage() units.Millivolt { return c.lastRailV }

// SetPoint returns the commanded VRM voltage.
func (c *Chip) SetPoint() units.Millivolt { return c.rail.SetPoint() }

// UndervoltMV returns how far below nominal the rail is commanded — the
// quantity of Figs. 10b and 12a.
func (c *Chip) UndervoltMV() units.Millivolt {
	return c.cfg.Law.VNom - c.rail.SetPoint()
}

// Current returns the last step's total rail current.
func (c *Chip) Current() units.Ampere { return c.lastCurrent }

// Temperature returns the package temperature.
func (c *Chip) Temperature() units.Celsius { return c.tempC }

// CoreTemperature returns core i's junction temperature.
func (c *Chip) CoreTemperature(i int) units.Celsius { return c.cores[i].tempC }

// CoreVoltageDC returns core i's DC operating voltage (after loadline and
// IR drop, before di/dt ripple).
func (c *Chip) CoreVoltageDC(i int) units.Millivolt { return c.cores[i].voltageDC }

// CoreVoltageMin returns the bottom of the typical ripple at core i, which
// is the voltage the guardband machinery must respect.
func (c *Chip) CoreVoltageMin(i int) units.Millivolt { return c.cores[i].voltageMin }

// CoreFreq returns core i's clock frequency.
func (c *Chip) CoreFreq(i int) units.Megahertz { return c.cores[i].dpll.Freq() }

// CoreMIPS returns core i's last-step instruction throughput.
func (c *Chip) CoreMIPS(i int) units.MIPS { return c.cores[i].lastMIPS }

// TotalMIPS returns the chip-wide throughput — the x-axis of the paper's
// Fig. 16 predictor.
func (c *Chip) TotalMIPS() units.MIPS {
	var sum units.MIPS
	for _, co := range c.cores {
		sum += co.lastMIPS
	}
	return sum
}

// CorePower returns core i's last-step power.
func (c *Chip) CorePower(i int) units.Watt { return c.cores[i].lastPower }

// CPMWindowSticky returns CPM j of core i's minimum over the most recently
// completed 32 ms firmware window — the value an AMESTER sticky-mode read
// returns.
func (c *Chip) CPMWindowSticky(i, j int) int {
	return c.cores[i].lastWindowSticky[j]
}

// MinCPMSample returns the smallest sample-mode CPM output across clocked
// cores — the chip-wide margin the firmware acts on.
func (c *Chip) MinCPMSample() int {
	min := -1
	for _, co := range c.cores {
		if co.state == power.Gated {
			continue
		}
		for _, v := range co.lastCPM {
			if min < 0 || v < min {
				min = v
			}
		}
	}
	return min
}

// CoreCPMMean returns the mean sample-mode output of core i's CPMs, the
// quantity Fig. 6's calibration averages.
func (c *Chip) CoreCPMMean(i int) float64 {
	co := c.cores[i]
	sum := 0.0
	for _, v := range co.lastCPM {
		sum += float64(v)
	}
	return sum / float64(len(co.lastCPM))
}

// KillCPM fails sensor j on core i (failure injection).
func (c *Chip) KillCPM(i, j int) {
	c.markDirty() // the dead sensor changes firmware behaviour from here on
	c.cores[i].cpms[j].Kill()
}

// CPMMVPerBit returns the sensitivity of CPM j on core i at the core's
// current frequency.
func (c *Chip) CPMMVPerBit(i, j int) float64 {
	return c.cores[i].cpms[j].MVPerBit(c.cores[i].dpll.Freq())
}

// CPMMVPerBitAt returns the sensitivity of CPM j on core i at an arbitrary
// frequency, as the Fig. 6b calibration derives it per sensor.
func (c *Chip) CPMMVPerBitAt(i, j int, f units.Megahertz) float64 {
	return c.cores[i].cpms[j].MVPerBit(f)
}

// DropBreakdown decomposes the chip's voltage drop the way the paper's
// Fig. 9 does, for core i.
type DropBreakdown struct {
	// LoadlineMV is the VRM loadline component (set point minus rail
	// output).
	LoadlineMV float64
	// IRDropMV is the on-chip PDN component at core i.
	IRDropMV float64
	// TypicalDidtMV is the typical-case ripple amplitude.
	TypicalDidtMV float64
	// WorstDidtMV is the additional depth of the worst droop seen in the
	// current sticky window beyond the typical ripple.
	WorstDidtMV float64
}

// TotalMV returns the full decomposed drop.
func (b DropBreakdown) TotalMV() float64 {
	return b.LoadlineMV + b.IRDropMV + b.TypicalDidtMV + b.WorstDidtMV
}

// Breakdown returns the voltage-drop decomposition at core i, measured the
// way the paper does (§4.3): passive components from the VRM current
// sensor and the PDN model, typical di/dt from sample-mode CPM reads, and
// worst-case di/dt from sticky-mode reads over the window.
func (c *Chip) Breakdown(i int) DropBreakdown {
	b := DropBreakdown{
		LoadlineMV:    float64(c.rail.SetPoint() - c.lastRailV),
		IRDropMV:      float64(c.lastDrops[i]),
		TypicalDidtMV: c.lastSample.TypicalMV,
	}
	worst := c.noise.WorstSinceReset()
	if w := c.lastWindowWorstDidt; w > worst {
		worst = w
	}
	if worst > b.TypicalDidtMV {
		b.WorstDidtMV = worst - b.TypicalDidtMV
	}
	return b
}

// TotalDropMV returns core i's total drop from the commanded set point to
// the ripple bottom, the quantity plotted per-core in Fig. 7 (as a percent
// of nominal).
func (c *Chip) TotalDropMV(i int) float64 {
	return float64(c.rail.SetPoint()-c.cores[i].voltageMin) + c.dcToWorstExtra()
}

func (c *Chip) dcToWorstExtra() float64 {
	worst := c.noise.WorstSinceReset()
	if w := c.lastWindowWorstDidt; w > worst {
		worst = w
	}
	if worst > c.lastSample.TypicalMV {
		return worst - c.lastSample.TypicalMV
	}
	return 0
}

// DroopStats aggregates the DPLL droop accounting across cores.
func (c *Chip) DroopStats() (absorbed, violations int) {
	for _, co := range c.cores {
		absorbed += co.dpll.DroopsAbsorbed()
		violations += co.dpll.TimingViolations()
	}
	return absorbed, violations
}

// ResetDroopStats clears every core's droop accounting, so measurements can
// exclude settling transients.
func (c *Chip) ResetDroopStats() {
	for _, co := range c.cores {
		co.dpll.ResetCounters()
	}
}
