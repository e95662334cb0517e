package chip

import (
	"math"
	"math/rand/v2"
	"testing"

	"agsim/internal/cpm"
	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/power"
	"agsim/internal/units"
)

// eagerFrozenReadCache is the read model as first written: every position
// of every sensor, every argmin row, with math.Erfc on every threshold.
// It is the reference the built-as-read model must match wherever a frozen
// tick can read it. In the dead-sensor and no-sensor cases it returns
// before the tails and argmin rows, leaving them as they were.
func eagerFrozenReadCache(c *Chip) {
	const rowLen = cpm.MaxValue + 2
	invSigma := 1 / (c.cfg.CPM.NoiseMV * math.Sqrt2)
	ns := len(c.frozenDetMV)
	c.frozenAnyDead = false
	c.frozenNoSensors = true
	k := 0
	for _, co := range c.cores {
		f := co.dpll.Freq()
		agedMin := co.voltageMin - units.Millivolt(c.agingMV)
		gated := co.state == power.Gated
		terms := cpm.CoreTerms(&c.cfg.CPM.Law, agedMin, f)
		for _, s := range co.cpms {
			c.frozenDetMV[k] = s.DetMarginMV(terms)
			c.frozenMVB[k] = s.MVPerBit(f)
			q := c.frozenQ[k*rowLen : (k+1)*rowLen]
			if gated {
				for b := range q {
					q[b] = 1
				}
				k++
				continue
			}
			c.frozenNoSensors = false
			if s.Dead() {
				c.frozenAnyDead = true
			}
			q[0] = 1
			for b := 1; b <= cpm.MaxValue; b++ {
				t := (float64(b-cpm.CalibTarget)-0.5)*c.frozenMVB[k] - c.frozenDetMV[k]
				q[b] = 0.5 * math.Erfc(t*invSigma)
			}
			q[cpm.MaxValue+1] = 0
			k++
		}
	}
	if c.frozenAnyDead || c.frozenNoSensors {
		return
	}
	for b := 0; b < rowLen; b++ {
		p := 1.0
		for k := 0; k < ns; k++ {
			p *= c.frozenQ[k*rowLen+b]
		}
		c.frozenTail[b] = p
	}
	for b := 0; b <= cpm.MaxValue; b++ {
		c.frozenSuf[ns] = 1
		for k := ns - 1; k >= 0; k-- {
			c.frozenSuf[k] = c.frozenSuf[k+1] * c.frozenQ[k*rowLen+b]
		}
		pref, cum := 1.0, 0.0
		for k := 0; k < ns; k++ {
			qb, qb1 := c.frozenQ[k*rowLen+b], c.frozenQ[k*rowLen+b+1]
			cum += (qb - qb1) * pref * c.frozenSuf[k+1]
			c.frozenArgW[b*ns+k] = cum
			pref *= qb1
		}
	}
}

// frozenModel is a copy of a chip's read-model arrays.
type frozenModel struct {
	detMV, mvb, q, argW []float64
	tail                [frozenRowLen]float64
	anyDead, noSensors  bool
}

func copyModel(c *Chip) frozenModel {
	return frozenModel{
		detMV:     append([]float64(nil), c.frozenDetMV...),
		mvb:       append([]float64(nil), c.frozenMVB...),
		q:         append([]float64(nil), c.frozenQ...),
		argW:      append([]float64(nil), c.frozenArgW...),
		tail:      c.frozenTail,
		anyDead:   c.frozenAnyDead,
		noSensors: c.frozenNoSensors,
	}
}

// cutoff is the first position whose chip-wide tail is exactly 0.
func (m *frozenModel) cutoff() int {
	for b, p := range m.tail {
		if p == 0 {
			return b
		}
	}
	return len(m.tail)
}

// modelMismatch compares the built-as-read model got against the eager
// reference want and returns the first difference, or "". Where a tick
// can read, got must carry want's bits: the dead and no-sensor flags
// always; when the model is read and no fail-safe applies, every margin
// and sensitivity, tails and sensor tails up to the cutoff, and argmin
// rows below it. Every other entry must be exactly 0.
func modelMismatch(want, got *frozenModel, read bool) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	zero := func(v float64) bool { return math.Float64bits(v) == 0 }
	if got.anyDead != want.anyDead || got.noSensors != want.noSensors {
		return "dead/no-sensor flags"
	}
	if !read || want.anyDead || want.noSensors {
		for _, s := range [][]float64{got.detMV, got.mvb, got.q, got.argW, got.tail[:]} {
			for _, v := range s {
				if !zero(v) {
					return "unread model entry not 0"
				}
			}
		}
		return ""
	}
	cut := want.cutoff()
	ns := len(want.detMV)
	for k := 0; k < ns; k++ {
		if !same(got.detMV[k], want.detMV[k]) || !same(got.mvb[k], want.mvb[k]) {
			return "margin or sensitivity"
		}
		for b := 0; b < frozenRowLen; b++ {
			g, w := got.q[k*frozenRowLen+b], want.q[k*frozenRowLen+b]
			if (b <= cut && !same(g, w)) || (b > cut && !zero(g)) {
				return "sensor tail"
			}
		}
	}
	for b := 0; b < frozenRowLen; b++ {
		if (b <= cut && !same(got.tail[b], want.tail[b])) || (b > cut && !zero(got.tail[b])) {
			return "chip-wide tail"
		}
	}
	for b := 0; b <= cpm.MaxValue; b++ {
		for k := 0; k < ns; k++ {
			g, w := got.argW[b*ns+k], want.argW[b*ns+k]
			if (b < cut && !same(g, w)) || (b >= cut && !zero(g)) {
				return "argmin row"
			}
		}
	}
	return ""
}

// randomFrozenPoint rewinds c to a fresh seed and gives it a random frozen
// operating point: gated cores, per-core frequency (a sixth of the points
// low enough for the 5 mV/bit sensitivity floor, which needs a law whose
// FMin admits them) and margin, aging, a dead sensor, the guardband mode
// and a recorder.
func randomFrozenPoint(c *Chip, r *rand.Rand, seed uint64, rec *obs.Recorder) {
	c.Reset("readmodel", seed, nil)
	law := &c.cfg.Law
	lowF := r.IntN(6) == 0
	for _, co := range c.cores {
		if r.IntN(4) == 0 {
			co.state = power.Gated
		}
		f := law.FRef + units.Megahertz(r.Float64()*float64(law.FCeil-law.FRef))
		if lowF {
			f = units.Megahertz(400 + 800*r.Float64())
		}
		co.dpll.SetFreq(f)
		co.voltageMin = law.VReq(f) + units.Millivolt(-50+300*r.Float64())
	}
	if r.IntN(2) == 0 {
		c.agingMV = 80 * r.Float64()
	}
	if r.IntN(10) == 0 {
		c.cores[r.IntN(len(c.cores))].cpms[r.IntN(CPMsPerCore)].Kill()
	}
	c.ctrl.SetMode([]firmware.Mode{firmware.Static, firmware.Undervolt, firmware.Overclock, firmware.Manual}[r.IntN(4)])
	if r.IntN(3) == 0 {
		c.rec = rec
	}
}

// TestFrozenReadModelExact holds the built-as-read model to the eager
// reference bit for bit over random operating points on 1- to 8-core
// chips, then over points whose noise puts a threshold's x exactly at the
// Erfc saturation edges -6 and 28 and one ulp either side.
func TestFrozenReadModelExact(t *testing.T) {
	r := rand.New(rand.NewPCG(14, 2015))
	rec := obs.New("readmodel", 16)
	chips := make([]*Chip, 8)
	for i := range chips {
		cfg := DefaultConfig("readmodel", 1)
		cfg.Cores, cfg.PDN.Cores = i+1, i+1
		// Clocks down to 400 MHz, so sensitivities reach their floor.
		cfg.Law.FMin, cfg.CPM.Law.FMin = 400, 400
		chips[i] = MustNew(cfg)
	}
	check := func(c *Chip, what string) bool {
		eagerFrozenReadCache(c)
		want := copyModel(c)
		c.refreshFrozenReadCache()
		got := copyModel(c)
		if msg := modelMismatch(&want, &got, c.frozenModelRead()); msg != "" {
			t.Errorf("%s: %s differs from the eager model", what, msg)
			return false
		}
		return true
	}

	var built, dead, noSensors, skipped, aged, floor int
	activeSeen := map[int]bool{}
	const points = 2400
	for i := 0; i < points; i++ {
		c := chips[r.IntN(len(chips))]
		randomFrozenPoint(c, r, uint64(i), rec)
		if !check(c, "random point") {
			return
		}
		switch {
		case c.frozenNoSensors:
			noSensors++
		case c.frozenAnyDead:
			dead++
		case !c.frozenModelRead():
			skipped++
		default:
			built++
			active := 0
			for k, co := range c.cores {
				if co.state != power.Gated {
					active++
					if c.frozenMVB[k*CPMsPerCore] == 5 {
						floor++
					}
				}
			}
			activeSeen[active] = true
			if c.agingMV > 0 {
				aged++
			}
		}
	}
	for n := 1; n <= 8; n++ {
		if !activeSeen[n] {
			t.Errorf("no built point with %d ungated cores", n)
		}
	}
	if built < points/3 || dead == 0 || noSensors == 0 || skipped == 0 || aged == 0 || floor == 0 {
		t.Errorf("coverage: %d built (%d aged, %d at the sensitivity floor), %d dead, %d no-sensor, %d unread",
			built, aged, floor, dead, noSensors, skipped)
	}

	// Edge points: pick a sensor and position, then search the noise level
	// until the threshold's x lands exactly on the target, with the
	// position inside the built range so the lazy path evaluates it.
	targets := []float64{
		math.Nextafter(-6, math.Inf(-1)), -6, math.Nextafter(-6, math.Inf(1)),
		math.Nextafter(28, math.Inf(-1)), 28, math.Nextafter(28, math.Inf(1)),
	}
	c := chips[7]
	noise := c.cfg.CPM.NoiseMV
	defer func() { c.cfg.CPM.NoiseMV = noise }()
	for _, x := range targets {
		hit := false
		for seed := uint64(0); seed < 200 && !hit; seed++ {
			randomFrozenPoint(c, r, 1e6+seed, rec)
			c.ctrl.SetMode(firmware.Undervolt)
			c.cfg.CPM.NoiseMV = noise
			c.refreshFrozenReadCache()
			if c.frozenAnyDead || c.frozenNoSensors {
				continue
			}
			hit = edgePoint(c, x)
		}
		if !hit {
			t.Fatalf("found no operating point with x = %v inside the built range", x)
		}
		if !check(c, "edge point") {
			return
		}
	}
}

// edgePoint searches the chip's noise level for a sensor and position b
// whose threshold x is exactly target, with b at or below the cutoff
// that noise level gives. It leaves the noise level set on success.
func edgePoint(c *Chip, target float64) bool {
	base := c.cfg.CPM.NoiseMV
	ns := len(c.frozenDetMV)
	detMV := append([]float64(nil), c.frozenDetMV...)
	mvb := append([]float64(nil), c.frozenMVB...)
	for k := 0; k < ns; k++ {
		if c.cores[k/CPMsPerCore].state == power.Gated {
			continue
		}
		for b := 1; b <= cpm.MaxValue; b++ {
			t := (float64(b-cpm.CalibTarget)-0.5)*mvb[k] - detMV[k]
			if t == 0 || (t < 0) != (target < 0) {
				continue
			}
			noise := t / (target * math.Sqrt2)
			for i := 0; i < 64; i++ {
				if t*(1/(noise*math.Sqrt2)) == target {
					c.cfg.CPM.NoiseMV = noise
					eagerFrozenReadCache(c)
					if m := copyModel(c); b <= m.cutoff() {
						return true
					}
					break
				}
				if (t*(1/(noise*math.Sqrt2)) < target) == (target > 0) {
					noise = math.Nextafter(noise, 0)
				} else {
					noise = math.Nextafter(noise, math.Inf(1))
				}
			}
			c.cfg.CPM.NoiseMV = base
		}
	}
	return false
}

// TestErfcSaturation pins the two facts positionTail relies on: Go's
// math.Erfc is exactly 2 below -6 and exactly 0 from 28 up. A Go release
// that changes erfc fails here rather than silently moving sampled-lane
// results. positionTail must equal erfc(x)/2 bit for bit around both edges
// and across a dense sweep of the range in between.
func TestErfcSaturation(t *testing.T) {
	below := []float64{math.Inf(-1), -1e300, -28, math.Nextafter(-28, 0), -10, -6.5, math.Nextafter(-6, math.Inf(-1))}
	for _, x := range below {
		if math.Erfc(x) != 2 {
			t.Errorf("math.Erfc(%v) = %v, want exactly 2", x, math.Erfc(x))
		}
	}
	above := []float64{28, math.Nextafter(28, math.Inf(1)), 28.5, 100, 1e300, math.Inf(1)}
	for _, x := range above {
		if math.Erfc(x) != 0 {
			t.Errorf("math.Erfc(%v) = %v, want exactly 0", x, math.Erfc(x))
		}
	}
	xs := append(below, above...)
	for _, edge := range []float64{-6, 28} {
		x := edge
		for i := 0; i < 8; i++ {
			xs = append(xs, x)
			x = math.Nextafter(x, math.Inf(-1))
		}
		x = edge
		for i := 0; i < 8; i++ {
			x = math.Nextafter(x, math.Inf(1))
			xs = append(xs, x)
		}
	}
	for x := -8.0; x <= 30; x += 1.0 / 256 {
		xs = append(xs, x)
	}
	for _, x := range xs {
		if got, want := positionTail(x), 0.5*math.Erfc(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("positionTail(%v) = %v, want erfc/2 = %v", x, got, want)
		}
	}
}
