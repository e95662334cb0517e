package chip

import (
	"fmt"

	"agsim/internal/cpm"
	"agsim/internal/didt"
	"agsim/internal/obs"
	"agsim/internal/power"
)

// Reset rewinds the chip to the state New would produce for the same
// configuration shape with the given identity — name, seed, and recorder
// are the only fields a sweep varies between points of one experiment —
// without allocating. Every retained random stream is reseeded in place,
// replaying New's exact split order, so a pooled chip's subsequent
// simulation is bit-identical to a freshly constructed one.
//
// Reset does not change the configuration shape (core count, law, PDN,
// mesh, thermal model, Exact lane): arenas key pooled chips by
// Config.ShapeKey so a chip is only ever reused for a matching shape.
func (c *Chip) Reset(name string, seed uint64, rec *obs.Recorder) {
	c.cfg.Name = name
	c.cfg.Seed = seed
	c.cfg.Recorder = rec

	// RNG rewind in New's order: root, then the didt split, then per-core
	// sensor parents with their per-sensor calibration children.
	c.root.Reseed(seed, "chip/"+name)
	c.root.SplitInto(c.noise.Source(), "didt")
	c.noise.Reset(c.cfg.Didt)
	// The frozen-tick stream is seeded directly from the experiment seed
	// (New does the same), not split from root, so its existence never
	// perturbs the calibration draws of pre-existing consumers.
	c.frozenRNG.Reseed(seed, "chip/"+name+"/frozen")
	c.frozenCarry = false
	c.frozenAnyDead = false
	c.frozenNoSensors = false
	c.clearFrozenModel()

	c.rail.Reset(name+"/vdd", c.cfg.Law.VNom)
	c.ctrl.Reset(c.cfg.Law)

	for i, co := range c.cores {
		co.state = power.IdleOn
		co.threads = co.threads[:0]
		co.dpll.Reset(c.cfg.Law)
		co.memFactor = 1
		co.issueThrottle = 1
		co.voltageDC = c.cfg.Law.VNom
		co.voltageMin = c.cfg.Law.VNom
		co.lastPower = 0
		co.lastMIPS = 0
		for k := range co.lastCPM {
			co.lastCPM[k] = 0
		}
		for k := range co.lastWindowSticky {
			co.lastWindowSticky[k] = cpm.MaxValue
		}
		co.tempC = c.cfg.AmbientC + 8

		src := c.sensorSrcs[i]
		c.root.SplitInto(src, coreSrcName(i))
		for j, s := range co.cpms {
			src.SplitInto(s.CalibSource(), sensorSplitNames[j])
			s.Reset(c.cfg.CPM)
		}
	}

	c.timeSec = 0
	c.sinceTick = 0
	c.tempC = c.cfg.AmbientC + 8
	c.lastSample = didt.Sample{}
	c.lastChipPower = 0
	c.lastCurrent = 0
	c.lastRailV = c.cfg.Law.VNom
	for i := range c.lastDrops {
		c.lastDrops[i] = 0
	}
	c.lastWindowWorstDidt = 0
	c.energyJ = 0
	c.agingMV = 0
	c.marginViolations = 0

	// Multi-rate state: New leaves the prev* snapshots at their zero
	// values (not VNom) — the first step can never count as stable.
	c.stable = 0
	c.prevRailV = 0
	for i := range c.prevCoreV {
		c.prevCoreV[i] = 0
		c.prevCoreF[i] = 0
	}

	c.rec = rec
	c.src = rec.Source(name)
	c.bindSeries()
	c.lastHorizonSec = 0
	c.lastHorizonReason = 0
}

// ShapeKey identifies the allocation shape of the configuration: every
// field except the per-point identity (Name, Seed, Recorder) that Reset
// rewrites on reuse. Arenas pool chips under this key, so a pooled chip is
// only handed to a caller whose configuration Reset can fully restore.
func (c Config) ShapeKey() string {
	c.Name = ""
	c.Seed = 0
	c.Recorder = nil
	mesh := "nil"
	if c.Mesh != nil {
		mesh = fmt.Sprintf("%+v", *c.Mesh)
		c.Mesh = nil
	}
	return fmt.Sprintf("chip{%+v mesh:%s}", c, mesh)
}

// ShapeKey returns the chip's configuration shape key, so a releasing
// caller can return the chip to the pool it was (or could have been)
// acquired from. The key is cached at construction — batched paths look
// it up once per chip per gather, and re-deriving it would format the
// whole configuration each time.
func (c *Chip) ShapeKey() string { return c.shapeKey }
