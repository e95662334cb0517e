package cpm

import (
	"fmt"
	"math"
	"testing"

	"agsim/internal/rng"
	"agsim/internal/units"
	"agsim/internal/vf"
)

func quietSensor(t *testing.T, seed uint64) *Sensor {
	t.Helper()
	cfg := DefaultConfig(vf.Default())
	cfg.NoiseMV = 0
	cfg.PathOffsetSpreadMV = 0
	cfg.MVPerBitSpread = 0
	return New(cfg, rng.New(seed, "cpm-test"))
}

func TestValueMonotoneInVoltage(t *testing.T) {
	s := quietSensor(t, 1)
	prev := -1
	for v := units.Millivolt(950); v <= 1280; v += 5 {
		got := s.Value(v, 4200)
		if got < prev {
			t.Fatalf("CPM value decreased with voltage at %v: %d < %d", v, got, prev)
		}
		prev = got
	}
}

func TestValueAntiMonotoneInFrequency(t *testing.T) {
	s := quietSensor(t, 2)
	prev := MaxValue + 1
	for f := units.Megahertz(2800); f <= 4620; f += 28 {
		got := s.Value(1200, f)
		if got > prev {
			t.Fatalf("CPM value increased with frequency at %v: %d > %d", f, got, prev)
		}
		prev = got
	}
}

func TestValueRange(t *testing.T) {
	s := quietSensor(t, 3)
	if got := s.Value(600, 4620); got != 0 {
		t.Errorf("starved sensor = %d, want 0", got)
	}
	if got := s.Value(2000, 2800); got != MaxValue {
		t.Errorf("flooded sensor = %d, want %d", got, MaxValue)
	}
}

func TestCalibrationTargetAtResidualMargin(t *testing.T) {
	// When the core sits exactly at V_req + residual, the sensor must read
	// its calibration target: that is what "calibrated" means.
	law := vf.Default()
	s := quietSensor(t, 4)
	v := law.VReq(4200) + law.ResidualMV
	if got := s.Value(v, 4200); got != CalibTarget {
		t.Errorf("calibrated point reads %d, want %d", got, CalibTarget)
	}
}

func TestSensitivityScalesWithFrequency(t *testing.T) {
	s := quietSensor(t, 5)
	atPeak := s.MVPerBit(4200)
	if math.Abs(atPeak-21) > 0.01 {
		t.Errorf("peak sensitivity = %v, want ~21 mV/bit (Fig. 6a)", atPeak)
	}
	atLow := s.MVPerBit(3600)
	if atLow >= atPeak {
		t.Errorf("sensitivity should shrink at lower frequency: %v vs %v", atLow, atPeak)
	}
	if s.MVPerBit(100) < 5 {
		t.Error("sensitivity floor violated")
	}
}

func TestPopulationSpread(t *testing.T) {
	// Fig. 6b: per-sensor sensitivity varies (10-30 mV/bit band). Build a
	// population and check spread without exceeding the band.
	cfg := DefaultConfig(vf.Default())
	r := rng.New(9, "population")
	minS, maxS := math.Inf(1), math.Inf(-1)
	for i := 0; i < 200; i++ {
		s := New(cfg, r.Split(string(rune('a'+i%26))+"x"))
		v := s.MVPerBit(4200)
		minS = math.Min(minS, v)
		maxS = math.Max(maxS, v)
	}
	if maxS-minS < 3 {
		t.Errorf("population spread too tight: [%v, %v]", minS, maxS)
	}
	if minS < 10 || maxS > 30 {
		t.Errorf("population outside Fig. 6b band: [%v, %v]", minS, maxS)
	}
}

func TestVoltageFromValueInvertsMapping(t *testing.T) {
	// §4.1 methodology: CPM output converts back to on-chip voltage within
	// quantization error (±half a bit plus read noise).
	cfg := DefaultConfig(vf.Default())
	cfg.NoiseMV = 0
	s := New(cfg, rng.New(11, "invert"))
	for _, v := range []units.Millivolt{1050, 1100, 1150, 1200} {
		val := s.Value(v, 4200)
		if val == 0 || val == MaxValue {
			continue // saturated, not invertible
		}
		est := s.VoltageFromValue(val, 4200)
		if math.Abs(float64(est-v)) > s.MVPerBit(4200)/2+1e-9 {
			t.Errorf("inversion at %v: estimated %v (err > half bit)", v, est)
		}
	}
}

func TestStickyTracksMinimum(t *testing.T) {
	s := quietSensor(t, 12)
	if _, ok := s.Sticky(); ok {
		t.Fatal("fresh sensor should have no sticky observation")
	}
	s.Value(1250, 4200) // high margin
	s.Value(1100, 4200) // droop
	s.Value(1250, 4200) // recovered
	min, ok := s.Sticky()
	if !ok {
		t.Fatal("sticky missing")
	}
	direct := quietSensor(t, 12).Value(1100, 4200)
	if min != direct {
		t.Errorf("sticky = %d, want the droop reading %d", min, direct)
	}
	s.StickyReset()
	if _, ok := s.Sticky(); ok {
		t.Error("sticky not cleared")
	}
}

func TestDeadSensorReadsWorstCase(t *testing.T) {
	s := quietSensor(t, 13)
	s.Kill()
	if !s.Dead() {
		t.Fatal("Dead() false after Kill")
	}
	if got := s.Value(1250, 4200); got != 0 {
		t.Errorf("dead sensor read %d, want 0", got)
	}
	if min, ok := s.Sticky(); !ok || min != 0 {
		t.Errorf("dead sensor sticky = %d, %v", min, ok)
	}
}

func TestReadNoiseBounded(t *testing.T) {
	cfg := DefaultConfig(vf.Default())
	s := New(cfg, rng.New(14, "noise"))
	v := units.Millivolt(1200)
	counts := map[int]int{}
	for i := 0; i < 2000; i++ {
		counts[s.Value(v, 4200)]++
	}
	if len(counts) < 1 || len(counts) > 4 {
		t.Errorf("read noise produced %d distinct values, want a narrow band", len(counts))
	}
}

func TestNewPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for nil rng")
			}
		}()
		New(DefaultConfig(vf.Default()), nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for bad sensitivity")
			}
		}()
		cfg := DefaultConfig(vf.Default())
		cfg.MeanMVPerBit = 0
		New(cfg, rng.New(1, "x"))
	}()
}

// coreSensors builds one core's five sensors (paper §2.2) from the default
// calibration; equal seeds give equal calibration and noise streams.
func coreSensors(law vf.Law, seed uint64) []*Sensor {
	ss := make([]*Sensor, 5)
	for j := range ss {
		ss[j] = New(DefaultConfig(law), rng.New(seed, fmt.Sprintf("core/%d", j)))
	}
	return ss
}

// valueByExpression is the read written out as one expression on the
// sensor's calibration, in the evaluation order the per-core path must
// keep: ((margin − residual) + pathOffset) + noise, over the floored
// sensitivity.
func valueByExpression(law *vf.Law, v units.Millivolt, f units.Megahertz, dead bool, pathOffsetMV, noiseOffsetMV, mvPerBitNom float64) int {
	if dead {
		return 0
	}
	marginMV := float64(law.MarginMV(v, f)) - float64(law.ResidualMV) + pathOffsetMV
	marginMV += noiseOffsetMV
	raw := CalibTarget + int(math.Round(marginMV/math.Max(mvPerBitNom*(float64(f)/float64(law.FNom)), 5)))
	return min(max(raw, 0), MaxValue)
}

// TestCoreReadMatchesValue pins the per-core read path to Value: CoreTerms
// once per core, then ReadCore over the core's five sensors — or the
// expression on the terms and each sensor's calibration and window
// state — must return exactly what Value(v, f) returns sensor by sensor,
// and the droop latch the step runs (Latch) must leave the same sticky
// latches as Value's re-read at the droop voltage, for table and random
// operating points. The core holds a dead sensor; random points move
// every divisor, and runs of points at one clock with the voltage
// wandering hold them, so the pass answers from the memo, searches and
// divides. Value itself is held to the written-out expression.
func TestCoreReadMatchesValue(t *testing.T) {
	law := vf.Default()
	byValue, byTerms := coreSensors(law, 21), coreSensors(law, 21)
	byValue[3].Kill()
	byTerms[3].Kill()

	type point struct {
		v units.Millivolt
		f units.Megahertz
	}
	points := []point{
		{law.VReq(4200) + law.ResidualMV, 4200}, // calibration target
		{1150, 4200},
		{600, 4620},  // starved: clamps at 0
		{2000, 2800}, // flooded: clamps at MaxValue
		{1000, 800},  // low f: sensitivity at its 5 mV/bit floor
	}
	r := rng.New(22, "core-read")
	for i := 0; i < 3000; i++ {
		p := point{units.Millivolt(r.Uniform(500, 2000)), units.Megahertz(r.Uniform(300, 4620))}
		points = append(points, p)
		if i%3 == 0 {
			// A held clock: the voltage wanders a few millivolts.
			for range 4 {
				p.v += units.Millivolt(r.Uniform(-4, 4))
				points = append(points, p)
			}
		}
	}

	var sawZero, sawMax, sawFloor bool
	read := make([]int, len(byTerms))
	for i, p := range points {
		terms := CoreTerms(&law, p.v, p.f)
		droopV := p.v - units.Millivolt(r.Uniform(0, 60))
		droop := CoreTerms(&law, droopV, p.f)
		ReadCore(byTerms, terms, read)
		for j := range byValue {
			want := byValue[j].Value(p.v, p.f)
			s := byTerms[j]
			mvb, poff, noff, dead := s.mvPerBitNom, s.pathOffsetMV, s.noiseOffsetMV, s.dead
			if ref := valueByExpression(&law, p.v, p.f, dead, poff, noff, mvb); want != ref {
				t.Fatalf("point %d (%v, %v) sensor %d: Value = %d, expression = %d", i, p.v, p.f, j, want, ref)
			}
			if got := rawByExpression(terms, dead, poff, noff, mvb); got != want {
				t.Fatalf("point %d (%v, %v) sensor %d: expression on the terms = %d, Value = %d", i, p.v, p.f, j, got, want)
			}
			if read[j] != want {
				t.Fatalf("point %d (%v, %v) sensor %d: ReadCore = %d, Value = %d", i, p.v, p.f, j, read[j], want)
			}
			if !dead {
				sawZero = sawZero || want == 0
				sawMax = sawMax || want == MaxValue
				sawFloor = sawFloor || MVPerBitAt(mvb, terms.FScale) == 5
			}
			if got, want := MVPerBitAt(mvb, terms.FScale), byValue[j].MVPerBit(p.f); got != want {
				t.Fatalf("point %d sensor %d: MVPerBitAt = %v, MVPerBit = %v", i, j, got, want)
			}
		}
		for j := range byValue {
			byValue[j].Value(droopV, p.f) // sticky latch only
			byTerms[j].Latch(droop)
			wm, wok := byValue[j].Sticky()
			gm, gok := byTerms[j].Sticky()
			if gm != wm || gok != wok {
				t.Fatalf("point %d sensor %d: sticky after droop re-read = (%d, %v), want (%d, %v)", i, j, gm, gok, wm, wok)
			}
		}
		if i%32 == 31 {
			// Close the window on both sets: the same noise redraws follow.
			for j := range byValue {
				byValue[j].StickyReset()
				byTerms[j].StickyReset()
			}
		}
	}
	if !sawZero || !sawMax || !sawFloor {
		t.Errorf("coverage: clamp at 0 %v, clamp at MaxValue %v, sensitivity floor %v", sawZero, sawMax, sawFloor)
	}
}

var sinkReads [5]int

// BenchmarkCoreReads times one core's pass over its five CPMs at a step's
// sensed voltage and frequency: the law terms once, then ReadCore. At a
// held clock the voltage wanders within a detector position, as a settled
// core's does, so the memo answers nearly every read; a cycling clock
// changes every sensor's divisor each read, so every read divides.
func BenchmarkCoreReads(b *testing.B) {
	for _, bc := range []struct {
		name string
		vs   []units.Millivolt
		fs   []units.Megahertz
	}{
		{"held", []units.Millivolt{1150, 1150.4, 1149.7, 1150.2}, []units.Megahertz{4200, 4200, 4200, 4200}},
		{"cycling", []units.Millivolt{1150, 1162, 1171, 1183}, []units.Megahertz{4200, 4310, 4420, 3900}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			law := vf.Default()
			ss := coreSensors(law, 23)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				ReadCore(ss, CoreTerms(&law, bc.vs[i&3], bc.fs[i&3]), sinkReads[:])
				i++
			}
		})
	}
}
