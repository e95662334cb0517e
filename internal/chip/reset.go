package chip

import (
	"fmt"

	"agsim/internal/cpm"
	"agsim/internal/obs"
	"agsim/internal/power"
)

// Reset rewinds the chip to the state New would produce for the same
// configuration shape with the given identity — name, seed, and recorder
// are the only fields a sweep varies between points of one experiment —
// without allocating. It zeroes the state New's fresh allocations leave
// zero, keeping the storage, then runs New's rewind, so a pooled chip
// images and simulates byte for byte like a freshly constructed one. The
// step scratch and the frozen read model keep what they hold: every use
// writes them before it reads them, and no image carries them.
//
// Reset does not change the configuration shape (core count, law, PDN,
// mesh, thermal model, Exact lane): arenas key pooled chips by
// Config.ShapeKey so a chip is only ever reused for a matching shape.
func (c *Chip) Reset(name string, seed uint64, rec *obs.Recorder) {
	c.cfg.Name, c.cfg.Seed, c.cfg.Recorder = name, seed, rec
	*c = Chip{
		cfg: c.cfg, shapeKey: c.shapeKey, cores: c.cores,
		plane: c.plane, rail: c.rail, ctrl: c.ctrl, noise: c.noise,
		lastDrops:       c.lastDrops,
		scratchCurrents: c.scratchCurrents, scratchProfiles: c.scratchProfiles, scratchDrops: c.scratchDrops,
		frozenDetMV: c.frozenDetMV, frozenMVB: c.frozenMVB, frozenQ: c.frozenQ,
		frozenSuf: c.frozenSuf, frozenArgW: c.frozenArgW, frozenRNG: c.frozenRNG,
		prevCoreV: c.prevCoreV, prevCoreF: c.prevCoreF,
		root: c.root, noiseSrc: c.noiseSrc, coreWalk: c.coreWalk, sensorWalk: c.sensorWalk,
	}
	clear(c.lastDrops)
	clear(c.prevCoreV)
	clear(c.prevCoreF)
	for _, co := range c.cores {
		*co = Core{Index: co.Index, threads: co.threads[:0], dpll: co.dpll, cpms: co.cpms,
			lastCPM: co.lastCPM, lastWindowSticky: co.lastWindowSticky}
		clear(co.lastCPM)
	}
	c.rewind()
}

// rewind sets every piece of chip state a fresh allocation does not leave
// zero, for the identity in the configuration; New runs it on new storage
// and Reset on cleared storage. The RNG tree is walked once, in
// construction order: the root, its di/dt split, then per core the sensor
// parent and per sensor the calibration child, from which the sensor
// draws its process variation and splits its read stream. The frozen-tick
// stream is seeded from the experiment seed, not split from root, so its
// existence never perturbs the calibration draws.
func (c *Chip) rewind() {
	name, seed, law := c.cfg.Name, c.cfg.Seed, c.cfg.Law

	c.root.Reseed(seed, "chip/"+name)
	c.root.SplitInto(c.noiseSrc, "didt")
	c.noise.Reset(c.cfg.Didt, c.noiseSrc)
	c.frozenRNG.Reseed(seed, "chip/"+name+"/frozen")
	c.rail.Reset(name+"/vdd", law.VNom)
	c.ctrl.Reset(law)

	for i, co := range c.cores {
		co.state = power.IdleOn
		co.dpll.Reset(law)
		co.memFactor = 1
		co.issueThrottle = 1
		co.voltageDC = law.VNom
		co.voltageMin = law.VNom
		for k := range co.lastWindowSticky {
			co.lastWindowSticky[k] = cpm.MaxValue
		}
		co.tempC = c.cfg.AmbientC + 8
		c.root.SplitInto(c.coreWalk, coreSplitName(i))
		for j, s := range co.cpms {
			c.coreWalk.SplitInto(c.sensorWalk, sensorSplitNames[j])
			s.Reset(c.cfg.CPM, c.sensorWalk)
		}
	}

	c.tempC = c.cfg.AmbientC + 8
	c.lastRailV = law.VNom
	c.exact = c.cfg.Exact

	c.rec = c.cfg.Recorder
	c.src = c.rec.Source(name)
	c.bindSeries()
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
// acquired from. The key is cached at construction — pooled paths look
// it up on every acquire and release, and re-deriving it would format the
// whole configuration each time.
func (c *Chip) ShapeKey() string { return c.shapeKey }
