// Package vrm models the server's voltage regulator module: a multi-rail
// regulator chip whose output sags below its set point in proportion to the
// load current (the loadline effect), plus the per-rail current sensors the
// paper uses to quantify passive voltage drop (§4.3: "To measure passive
// voltage drop ... we use VRM's current sensors").
//
// The loadline is the central villain of the paper: it converts chip power
// directly into lost guardband, which is why adaptive guardbanding's benefit
// collapses at high core counts and why loadline borrowing works.
package vrm

import (
	"fmt"

	"agsim/internal/units"
)

// Rail is one output of the VRM chip with its own set point and loadline.
// In the paper's Power 720 each processor socket is fed by its own rail of
// a shared VRM chip (Fig. 11), which is what lets loadline borrowing reduce
// per-socket drop by splitting current between rails.
type Rail struct {
	Name string

	// LoadlineMilliohm is the effective output resistance.
	LoadlineMilliohm float64

	// MaxCurrent is the rail's current limit; Output saturates (the
	// regulator folds back its voltage) beyond it.
	MaxCurrent units.Ampere

	// VMax bounds the commanded set point, protecting the chip.
	VMax units.Millivolt

	setPoint units.Millivolt

	// Current sensing. The sensor quantizes to SenseLSB amperes; a stuck
	// sensor (fault injection for firmware fail-safe tests) reports its
	// frozen value forever.
	SenseLSB    float64
	stuck       bool
	stuckValue  units.Ampere
	lastCurrent units.Ampere
}

// NewRail constructs a rail with the given loadline and limits, initially
// commanded to vset.
func NewRail(name string, loadlineMilliohm float64, vset, vmax units.Millivolt, maxCurrent units.Ampere) (*Rail, error) {
	if loadlineMilliohm < 0 {
		return nil, fmt.Errorf("vrm: rail %s: negative loadline %v", name, loadlineMilliohm)
	}
	if vset <= 0 || vmax <= 0 || vset > vmax {
		return nil, fmt.Errorf("vrm: rail %s: bad voltages set=%v max=%v", name, vset, vmax)
	}
	if maxCurrent <= 0 {
		return nil, fmt.Errorf("vrm: rail %s: non-positive current limit %v", name, maxCurrent)
	}
	return &Rail{
		Name:             name,
		LoadlineMilliohm: loadlineMilliohm,
		MaxCurrent:       maxCurrent,
		VMax:             vmax,
		setPoint:         vset,
		SenseLSB:         0.25,
	}, nil
}

// Reset rewinds the rail to the state NewRail(name, …, vset, …) produces
// with the rail's existing loadline and limits: set point restored,
// current sensor un-stuck and cleared, default sense quantization. The
// name is reassigned because pooled chips may be re-tagged between uses.
func (r *Rail) Reset(name string, vset units.Millivolt) {
	if vset <= 0 || vset > r.VMax {
		panic(fmt.Sprintf("vrm: rail %s: reset voltage %v outside (0, %v]", name, vset, r.VMax))
	}
	r.Name = name
	r.setPoint = vset
	r.SenseLSB = 0.25
	r.stuck = false
	r.stuckValue = 0
	r.lastCurrent = 0
}

// SetPoint returns the commanded output voltage.
func (r *Rail) SetPoint() units.Millivolt { return r.setPoint }

// Command sets the rail's target voltage, clamped to (0, VMax].
func (r *Rail) Command(v units.Millivolt) {
	if v > r.VMax {
		v = r.VMax
	}
	if v < 1 {
		v = 1
	}
	r.setPoint = v
}

// Output returns the rail voltage delivered at the package input while
// sourcing current i, applying the loadline. Currents beyond MaxCurrent
// fold the output back sharply, modelling regulator current limiting.
func (r *Rail) Output(i units.Ampere) units.Millivolt {
	if i < 0 {
		panic(fmt.Sprintf("vrm: rail %s sourcing negative current %v", r.Name, i))
	}
	r.lastCurrent = i
	v := r.setPoint - units.IRDrop(i, r.LoadlineMilliohm)
	if i > r.MaxCurrent {
		// Fold back 1 mV per ampere of overcurrent: enough to make an
		// over-budget schedule visibly collapse in experiments rather
		// than silently draw unbounded power.
		v -= units.Millivolt(float64(i - r.MaxCurrent))
	}
	if v < 0 {
		v = 0
	}
	return v
}

// LoadlineDropMV returns the drop the loadline causes at current i; the
// paper's decomposition (Fig. 9) reports this component separately.
func (r *Rail) LoadlineDropMV(i units.Ampere) units.Millivolt {
	return units.IRDrop(i, r.LoadlineMilliohm)
}

// SenseCurrent reads the rail's current sensor: the last sourced current,
// quantized to the sensor LSB, unless the sensor is stuck.
func (r *Rail) SenseCurrent() units.Ampere {
	if r.stuck {
		return r.stuckValue
	}
	if r.SenseLSB <= 0 {
		return r.lastCurrent
	}
	steps := float64(int(float64(r.lastCurrent)/r.SenseLSB + 0.5))
	return units.Ampere(steps * r.SenseLSB)
}

// StickSensor freezes the current sensor at its present reading; used by
// failure-injection tests to verify the firmware fails safe.
func (r *Rail) StickSensor() {
	r.stuckValue = r.SenseCurrent()
	r.stuck = true
}

// UnstickSensor restores normal sensing.
func (r *Rail) UnstickSensor() { r.stuck = false }

// VRM is a regulator chip with several independently commanded rails, as in
// the paper's Fig. 11 ("the VRM can generate multiple Vdd levels for
// different processors, which is normal for contemporary systems").
type VRM struct {
	rails []*Rail
}

// New creates a VRM from its rails.
func New(rails ...*Rail) *VRM { return &VRM{rails: rails} }

// Rail returns rail i.
func (v *VRM) Rail(i int) *Rail { return v.rails[i] }

// Rails returns the number of rails.
func (v *VRM) Rails() int { return len(v.rails) }

// TotalCurrent returns the sum of the last sourced currents, which a shared
// VRM chip's input stage would see.
func (v *VRM) TotalCurrent() units.Ampere {
	var sum units.Ampere
	for _, r := range v.rails {
		sum += r.lastCurrent
	}
	return sum
}
