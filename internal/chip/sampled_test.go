package chip_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"agsim/internal/chip"
	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/power"
	"agsim/internal/sample"
	"agsim/internal/snapshot"
	"agsim/internal/tsdb"
	"agsim/internal/workload"
)

// sampledLife is one chip life under the sampling governor: the guardband
// mode, the active core count, whether a recorder with time-series is
// attached, and the optional faults the frozen read model special-cases.
type sampledLife struct {
	mode     firmware.Mode
	active   int
	recorded bool
	gated    int  // trailing cores power-gated
	dead     bool // one CPM killed
	// toUndervolt switches the chip to Undervolt halfway through its
	// run, so the frozen ticks of the first mode must have kept the
	// frozen stream where the second mode expects it.
	toUndervolt bool
}

func (l sampledLife) String() string {
	return fmt.Sprintf("%v/%d/rec=%v/gated=%d/dead=%v/toUndervolt=%v", l.mode, l.active, l.recorded, l.gated, l.dead, l.toUndervolt)
}

// sampledLives covers Static, Undervolt and Overclock at 1 and 8 active
// cores with and without a recorder, plus the gated-core and dead-sensor
// variants of the frozen read model and mid-run switches to Undervolt.
func sampledLives() []sampledLife {
	var lives []sampledLife
	for _, m := range []firmware.Mode{firmware.Static, firmware.Undervolt, firmware.Overclock} {
		for _, k := range []int{1, 8} {
			for _, rec := range []bool{false, true} {
				lives = append(lives, sampledLife{mode: m, active: k, recorded: rec})
			}
		}
	}
	return append(lives,
		sampledLife{mode: firmware.Undervolt, active: 4, gated: 4},
		sampledLife{mode: firmware.Undervolt, active: 8, dead: true},
		sampledLife{mode: firmware.Static, active: 4, toUndervolt: true},
		sampledLife{mode: firmware.Static, active: 8, toUndervolt: true},
		sampledLife{mode: firmware.Overclock, active: 1, toUndervolt: true},
		sampledLife{mode: firmware.Overclock, active: 8, toUndervolt: true},
	)
}

// build constructs and settles the life's chip. The recorder, when
// attached, keeps every event of the run in its ring.
func (l sampledLife) build(name string, seed uint64) (*chip.Chip, *obs.Recorder) {
	cfg := chip.DefaultConfig(name, seed)
	var rec *obs.Recorder
	if l.recorded {
		rec = obs.New(name, 1<<16)
		rec.EnableTimeSeries(tsdb.CompactSpec())
		cfg.Recorder = rec.Shard("chip")
	}
	c := chip.MustNew(cfg)
	l.prepare(c)
	return c, rec
}

// prepare places the life's threads, applies its faults and mode, and
// settles the chip.
func (l sampledLife) prepare(c *chip.Chip) {
	d := workload.MustGet("raytrace")
	for i := 0; i < l.active; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	for i := c.Cores() - l.gated; i < c.Cores(); i++ {
		c.SetCoreState(i, power.Gated)
	}
	if l.dead {
		c.KillCPM(3, 1)
	}
	c.SetMode(l.mode)
	c.Settle(1)
}

// digestWriter hashes values in a fixed little-endian layout.
type digestWriter struct{ h hash.Hash }

func (w digestWriter) f(v float64) { w.u(math.Float64bits(v)) }
func (w digestWriter) u(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.h.Write(b[:])
}

// TestSampledRunDigestPinned holds the sampled lane's outputs — time
// integrals, energy, temperatures, controller ticks, window-minimum
// histogram and attribution events — to a SHA-256, so an optimization of
// FastForward and its read model must leave every bit of them unchanged.
// Detailed spans ride the macro lane, so a change to the macro lane's leap
// schedule (its quiescence rule or horizons) moves the digest too; the
// pin then records the new trajectory.
func TestSampledRunDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64; other architectures may fuse multiply-adds and simulate different bits")
	}
	w := digestWriter{sha256.New()}
	for i, l := range sampledLives() {
		c, rec := l.build("digest", uint64(1000+i))
		g := sample.New(c, sample.Config{})
		var power, freq, uv float64
		observe := func(dt float64) {
			power += float64(c.ChipPower()) * dt
			freq += float64(c.CoreFreq(0)) * dt
			uv += float64(c.UndervoltMV()) * dt
		}
		if l.toUndervolt {
			g.Run(30, observe)
			c.SetMode(firmware.Undervolt)
			g.Run(30, observe)
		} else {
			g.Run(60, observe)
		}
		if g.FastSec() == 0 {
			t.Fatalf("%v: never fast-forwarded; the frozen span is not exercised", l)
		}
		for _, v := range []float64{power, freq, uv, c.EnergyJ(), c.Time(),
			float64(c.Temperature()), g.FastSec(), g.DetailedSec()} {
			w.f(v)
		}
		for k := 0; k < c.Cores(); k++ {
			w.f(float64(c.CoreTemperature(k)))
		}
		w.u(uint64(c.Controller().Ticks()))
		w.u(uint64(c.MarginViolations()))
		if rec == nil {
			continue
		}
		lg := rec.SnapshotWithEvents()
		hist := lg.Hists[obs.HWindowMinCPM]
		for _, n := range hist.Counts {
			w.u(n)
		}
		w.f(hist.Sum)
		w.u(lg.EventsLost)
		var attribs int
		for _, e := range lg.Events {
			if e.Kind != obs.KindAttrib {
				continue
			}
			attribs++
			w.u(uint64(e.TimeUS))
			w.f(e.A)
			w.f(e.B)
			w.u(uint64(e.C))
		}
		if attribs == 0 || lg.EventsLost != 0 {
			t.Fatalf("%v: %d attribution events, %d lost", l, attribs, lg.EventsLost)
		}
	}
	if got := hex.EncodeToString(w.h.Sum(nil)); got != pinSampledSHA {
		t.Errorf("sampled-run digest %s, want %s", got, pinSampledSHA)
	}
}

const pinSampledSHA = "4c67f888009eaf2ead0f94dc640cb5f1bfe3ae41ed1a6281ef0f61dd45157c50"

// TestSampledPoolMatchesFresh: a pooled chip, Reset after a different
// sampled life, images byte for byte like a fresh chip once settled and
// again after the same sampled span. Reset keeps the frozen read model
// and the step scratch, which no image carries, so they still hold the
// previous life, whatever parts of the model its last fast-forward
// built; the second image shows no state of the next life depends on
// them.
func TestSampledPoolMatchesFresh(t *testing.T) {
	run := func(c *chip.Chip) {
		sample.New(c, sample.Config{}).Run(10, nil)
	}
	image := func(c *chip.Chip) []byte {
		img, err := snapshot.Save(c, snapshot.Meta{Seed: 77, Revision: "pool"})
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	for _, tc := range []struct{ prev, next sampledLife }{
		{sampledLife{mode: firmware.Undervolt, active: 8}, sampledLife{mode: firmware.Static, active: 8}},
		{sampledLife{mode: firmware.Undervolt, active: 8}, sampledLife{mode: firmware.Undervolt, active: 1}},
		{sampledLife{mode: firmware.Static, active: 8, recorded: true}, sampledLife{mode: firmware.Static, active: 8}},
		{sampledLife{mode: firmware.Undervolt, active: 1}, sampledLife{mode: firmware.Undervolt, active: 8}},
		{sampledLife{mode: firmware.Static, active: 8}, sampledLife{mode: firmware.Undervolt, active: 8, dead: true}},
		{sampledLife{mode: firmware.Undervolt, active: 8, dead: true}, sampledLife{mode: firmware.Undervolt, active: 8}},
		{sampledLife{mode: firmware.Overclock, active: 4}, sampledLife{mode: firmware.Undervolt, active: 4, gated: 4}},
	} {
		fresh, _ := tc.next.build("pool", 77)
		settled := image(fresh)
		run(fresh)

		pooled, _ := tc.prev.build("other", 5)
		run(pooled)
		pooled.Reset("pool", 77, nil)
		tc.next.prepare(pooled)
		if !bytes.Equal(settled, image(pooled)) {
			t.Errorf("%v after %v: pooled chip images differently before its first fast-forward", tc.next, tc.prev)
		}
		run(pooled)

		if !bytes.Equal(image(fresh), image(pooled)) {
			t.Errorf("%v after %v: pooled chip images differently from a fresh one", tc.next, tc.prev)
		}
	}
}
