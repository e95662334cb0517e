package chip

import (
	"reflect"
	"testing"

	"agsim/internal/firmware"
)

// stepTrace runs the chip's standard reset-test life — four raytrace
// threads under adaptive undervolting — and records every externally
// visible observable per step, bit-exact.
func stepTrace(c *Chip) [][]float64 {
	placeN(c, "raytrace", 4)
	c.SetMode(firmware.Undervolt)
	c.Settle(0.5)
	const steps = 200
	out := make([][]float64, 0, steps)
	for i := 0; i < steps; i++ {
		c.Step(DefaultStepSec)
		row := []float64{
			float64(c.ChipPower()),
			float64(c.UndervoltMV()),
			float64(c.TotalMIPS()),
			c.EnergyJ(),
		}
		for core := 0; core < c.Cores(); core++ {
			row = append(row,
				float64(c.CoreFreq(core)),
				c.CoreCPMMean(core),
				c.TotalDropMV(core),
			)
		}
		out = append(out, row)
	}
	return out
}

// dirty runs the chip through a different identity's life — other
// workload, other mode, aged silicon — so a subsequent Reset has real
// state to rewind.
func dirty(c *Chip) {
	placeN(c, "mcf", c.Cores())
	c.SetMode(firmware.Overclock)
	c.Settle(1.0)
	c.AgeBy(50)
}

// TestResetMatchesFreshConstruction is the arena determinism contract at
// chip level: a pooled chip rewound by Reset must replay a freshly
// constructed chip's step sequence bit for bit.
func TestResetMatchesFreshConstruction(t *testing.T) {
	want := stepTrace(MustNew(DefaultConfig("reset-id", 99)))

	c := MustNew(DefaultConfig("other", 7))
	dirty(c)
	c.Reset("reset-id", 99, nil)
	if got := stepTrace(c); !reflect.DeepEqual(want, got) {
		t.Error("reset chip's step trace diverged from fresh construction")
	}
}

// TestResetMatchesFreshConstructionMesh keeps the same contract on the
// mesh-fidelity lane, where the PDN kernel is shared from the process-wide
// cache rather than rebuilt.
func TestResetMatchesFreshConstructionMesh(t *testing.T) {
	want := stepTrace(MustNew(DefaultConfig("reset-mesh", 99).WithMesh()))

	c := MustNew(DefaultConfig("other-mesh", 7).WithMesh())
	dirty(c)
	c.Reset("reset-mesh", 99, nil)
	if got := stepTrace(c); !reflect.DeepEqual(want, got) {
		t.Error("reset mesh chip's step trace diverged from fresh construction")
	}
}

// TestDoubleResetIdempotent: Reset from a just-reset state lands on the
// same state — pooled chips may be reset without an intervening run.
func TestDoubleResetIdempotent(t *testing.T) {
	want := stepTrace(MustNew(DefaultConfig("twice", 5)))

	c := MustNew(DefaultConfig("elsewhere", 11))
	dirty(c)
	c.Reset("twice", 5, nil)
	c.Reset("twice", 5, nil)
	if got := stepTrace(c); !reflect.DeepEqual(want, got) {
		t.Error("double-reset chip's step trace diverged from fresh construction")
	}
}

// TestResetAllocations pins what a Reset allocates: the rail's name,
// which the rail keeps, and nothing per core, so a pooled sweep's
// thousands of rewinds do not format each core's split name again.
func TestResetAllocations(t *testing.T) {
	c := MustNew(DefaultConfig("pooled", 3))
	allocs := testing.AllocsPerRun(100, func() { c.Reset("pooled", 3, nil) })
	if allocs > 1 {
		t.Fatalf("Reset allocates %v objects, want at most 1", allocs)
	}
}
