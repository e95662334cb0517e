package cpm

import (
	"math"
	"testing"
	"unsafe"

	"agsim/internal/rng"
	"agsim/internal/vf"
)

// rawByExpression is the read without the memo, written out as the one
// expression it has always been — the division, math.Round and
// math.Max — on read terms and a calibration: the reference every
// memoized read must equal bit for bit.
func rawByExpression(t Terms, dead bool, pathOffsetMV, noiseOffsetMV, mvPerBitNom float64) int {
	if dead {
		return 0
	}
	marginMV := t.MarginMV + pathOffsetMV
	marginMV += noiseOffsetMV
	raw := CalibTarget + int(math.Round(marginMV/math.Max(mvPerBitNom*t.FScale, 5)))
	if raw < 0 {
		raw = 0
	}
	if raw > MaxValue {
		raw = MaxValue
	}
	return raw
}

// TestRoundHalfAwayMatchesMathRound holds the call-free rounding to
// int(math.Round(q)) on half-integers and their neighbours, the int
// range's edges, NaN, the infinities and random quotients of every
// magnitude, and the clamped read built on it to the clamped expression.
func TestRoundHalfAwayMatchesMathRound(t *testing.T) {
	qs := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e300, -1e300, 0x1p63, -0x1p63, 0x1p63 - 1024, -0x1p63 + 1024, 0x1p64, -0x1p64,
		0x1p52 + 0.5, 0x1p52 + 1, -0x1p52 - 1, 0x1p53 + 2, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for k := -40; k <= 40; k++ {
		h := float64(k) + 0.5
		qs = append(qs, h, math.Nextafter(h, math.Inf(1)), math.Nextafter(h, math.Inf(-1)), float64(k))
	}
	r := rng.New(31, "round")
	for i := 0; i < 200000; i++ {
		qs = append(qs, r.Uniform(-30, 30), math.Ldexp(r.Uniform(-1, 1), int(r.Uniform(-60, 70))))
	}
	for _, q := range qs {
		if got, want := roundHalfAway(q), int(math.Round(q)); got != want {
			t.Fatalf("roundHalfAway(%v) = %d, int(math.Round) = %d", q, got, want)
		}
		want := min(max(CalibTarget+int(math.Round(q)), 0), MaxValue)
		if got := rawAt(q, 1); got != want {
			t.Fatalf("rawAt(%v, 1) = %d, clamped expression = %d", q, got, want)
		}
	}
}

// TestMVPerBitAtMatchesMax holds the comparison floor to math.Max(d, 5),
// the divisor the memo-free expression uses, bit for bit: NaN stays NaN,
// both zeros and the infinities land where Max puts them, and so do the
// floats beside the floor and random products of every magnitude.
func TestMVPerBitAtMatchesMax(t *testing.T) {
	ds := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5,
		math.Nextafter(5, 0), math.Nextafter(5, 6), -5, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	r := rng.New(35, "floor")
	for i := 0; i < 100000; i++ {
		ds = append(ds, r.Uniform(-10, 40), math.Ldexp(r.Uniform(-1, 1), int(r.Uniform(-60, 70))))
	}
	for _, d := range ds {
		got, want := MVPerBitAt(d, 1), math.Max(d, 5)
		if math.IsNaN(got) != math.IsNaN(want) || !math.IsNaN(want) && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MVPerBitAt(%v, 1) = %v, math.Max = %v", d, got, want)
		}
	}
}

// TestReadIntervalExact checks the memo's interval ends (lowEnd,
// highEnd) sit exactly where the read changes: both ends read the interval's output, the float beyond
// each end reads another (unless the end is the memo's limit), and the
// margin the interval was built from lies inside it. Divisors cover the
// 5 mV/bit floor, the population's spread and sizes far beyond it.
func TestReadIntervalExact(t *testing.T) {
	r := rng.New(32, "interval")
	divs := []float64{5, 21, math.Nextafter(5, 6), 1e6, 1e300, math.Inf(1)}
	for i := 0; i < 300; i++ {
		divs = append(divs, r.Uniform(5, 40))
	}
	for _, d := range divs {
		for k := -3; k <= MaxValue+3; k++ {
			for _, m := range []float64{
				(float64(k-CalibTarget) - 0.5) * d, (float64(k-CalibTarget) + 0.5) * d,
				(float64(k-CalibTarget) + r.Uniform(-0.5, 0.5)) * d, r.Uniform(-1, 1) * memoLimitMV,
			} {
				m = math.Max(-memoLimitMV, math.Min(memoLimitMV, m))
				out := rawAt(m, d)
				lo, hi := lowEnd(m, d, out), highEnd(m, d, out)
				if !(lo <= m && m <= hi) {
					t.Fatalf("d=%v m=%v: interval [%v, %v] misses its margin", d, m, lo, hi)
				}
				if rawAt(lo, d) != out || rawAt(hi, d) != out {
					t.Fatalf("d=%v out=%d: ends read %d and %d", d, out, rawAt(lo, d), rawAt(hi, d))
				}
				if below := math.Nextafter(lo, math.Inf(-1)); lo > -memoLimitMV && rawAt(below, d) == out {
					t.Fatalf("d=%v out=%d: %v below lo=%v also reads %d", d, out, below, lo, out)
				}
				if above := math.Nextafter(hi, math.Inf(1)); hi < memoLimitMV && rawAt(above, d) == out {
					t.Fatalf("d=%v out=%d: %v above hi=%v also reads %d", d, out, above, hi, out)
				}
			}
		}
	}
}

// runReadScript drives a core's sensors through a script of reads and
// window closes decoded from ops, starting at margin marginMV and
// frequency scale fScale, and holds every read and each sensor's sticky
// latch after every op to rawByExpression on that sensor's calibration.
// One sensor reads through Read; several read through ReadCore, the
// step's per-core pass. It returns how many reads the memo answered,
// counted from each sensor's memo before the read.
//
// Each op byte is an action in its low two bits and a signed argument
// a = byte>>2 − 32 in the rest: 0 reads, first latching (Latch) every
// sensor at a margin a/16 of the first sensor's detector position lower
// when a > 0, which must feed the sticky latches and leave the memos as
// they were; 1 steps the margin a floats (across a threshold when it
// starts beside one); 2 moves it a/16 of the first sensor's detector
// position; 3 closes the window when a ≥ 0 (the sticky latches clear,
// the held noise redraws) and otherwise scales the clock by 1 + a/1024.
// Actions 1 to 3 read after they act.
func runReadScript(t *testing.T, core []*Sensor, marginMV, fScale float64, ops []byte) (hits int) {
	t.Helper()
	wantMin, wantHas := make([]int, len(core)), make([]bool, len(core))
	observe := func(i, want int) {
		if !wantHas[i] || want < wantMin[i] {
			wantMin[i], wantHas[i] = want, true
		}
	}
	got := make([]int, len(core))
	read := func() {
		terms := Terms{MarginMV: marginMV, FScale: fScale}
		for _, s := range core {
			m := terms.MarginMV + s.pathOffsetMV + s.noiseOffsetMV
			if d := MVPerBitAt(s.mvPerBitNom, fScale); !s.dead && d == s.memoDiv && m >= s.memoLo && m <= s.memoHi {
				hits++
			}
		}
		if len(core) == 1 {
			got[0] = core[0].Read(terms)
		} else {
			ReadCore(core, terms, got)
		}
		for i, s := range core {
			want := rawByExpression(terms, s.dead, s.pathOffsetMV, s.noiseOffsetMV, s.mvPerBitNom)
			if got[i] != want {
				t.Fatalf("sensor %d read at margin %v, scale %v (divisor %v, offsets %v, %v): memo %d, expression %d",
					i, marginMV, fScale, MVPerBitAt(s.mvPerBitNom, fScale), s.pathOffsetMV, s.noiseOffsetMV, got[i], want)
			}
			observe(i, want)
		}
	}
	memo := func(s *Sensor) [4]uint64 {
		return [4]uint64{math.Float64bits(s.memoDiv), math.Float64bits(s.memoLo),
			math.Float64bits(s.memoHi), uint64(s.memoOut)}
	}
	for _, b := range ops {
		a := int(b>>2) - 32
		switch b & 3 {
		case 0:
			if a <= 0 {
				break
			}
			latch := Terms{MarginMV: marginMV - float64(a)/16*MVPerBitAt(core[0].mvPerBitNom, fScale), FScale: fScale}
			for i, s := range core {
				before := memo(s)
				s.Latch(latch)
				if after := memo(s); after != before {
					t.Fatalf("sensor %d latch at margin %v moved the memo from %x to %x", i, latch.MarginMV, before, after)
				}
				observe(i, rawByExpression(latch, s.dead, s.pathOffsetMV, s.noiseOffsetMV, s.mvPerBitNom))
			}
		case 1:
			dir := math.Inf(1)
			if a < 0 {
				dir, a = math.Inf(-1), -a
			}
			for ; a > 0; a-- {
				marginMV = math.Nextafter(marginMV, dir)
			}
		case 2:
			marginMV += float64(a) / 16 * MVPerBitAt(core[0].mvPerBitNom, fScale)
		case 3:
			if a >= 0 {
				for i, s := range core {
					s.StickyReset()
					wantMin[i], wantHas[i] = 0, false
				}
			} else {
				fScale *= 1 + float64(a)/1024
			}
		}
		read()
		for i, s := range core {
			if gm, gh := s.Sticky(); gm != wantMin[i] || gh != wantHas[i] {
				t.Fatalf("sensor %d sticky latch (%d, %v), want (%d, %v)", i, gm, gh, wantMin[i], wantHas[i])
			}
		}
	}
	return hits
}

// scriptSensor returns a sensor with the given calibration and held
// noise; its window redraws come from the default noise level on a read
// stream named by stream.
func scriptSensor(stream uint64, mvPerBitNom, pathOffsetMV, noiseOffsetMV float64, dead bool) *Sensor {
	s := New(DefaultConfig(vf.Default()), rng.New(33+stream, "script"))
	s.mvPerBitNom, s.pathOffsetMV, s.noiseOffsetMV = mvPerBitNom, pathOffsetMV, noiseOffsetMV
	if dead {
		s.Kill()
	}
	return s
}

// scriptCore returns a core of five sensors around one calibration. The
// first has it exactly, so a margin placed beside one of its thresholds
// stays there; the second is dead; the third's sensitivity is an eighth
// of it, below the 5 mV/bit floor at the usual clocks, so its divisor
// holds while a clock move changes the others'; the last two spread
// sensitivity and offsets as process variation does.
func scriptCore(mvPerBitNom, pathOffsetMV, noiseOffsetMV float64, dead bool) []*Sensor {
	return []*Sensor{
		scriptSensor(0, mvPerBitNom, pathOffsetMV, noiseOffsetMV, dead),
		scriptSensor(1, mvPerBitNom, pathOffsetMV, noiseOffsetMV, true),
		scriptSensor(2, mvPerBitNom/8, pathOffsetMV+1.5, noiseOffsetMV, false),
		scriptSensor(3, mvPerBitNom*1.25, pathOffsetMV-3, noiseOffsetMV+0.5, false),
		scriptSensor(4, mvPerBitNom*0.8, pathOffsetMV+4, -noiseOffsetMV, false),
	}
}

// TestSensorReadMemoMatchesExpression runs random read scripts — held
// clocks with margins that wander across thresholds float by float and
// bit by bit, droop latches, window closes, clock moves — on sensors
// with random calibrations, alone and in a five-sensor core around the
// same calibration, and requires every read and latch to equal the
// memo-free expression and the memo to answer most live reads at a held
// clock.
func TestSensorReadMemoMatchesExpression(t *testing.T) {
	r := rng.New(34, "memo")
	var hits, reads, coreHits, coreReads int
	for i := 0; i < 400; i++ {
		mvb, poff, noff, dead := r.Uniform(10, 30), r.Normal(0, 4), r.Normal(0, 1.5), i%50 == 49
		fScale := r.Uniform(0.2, 1.1)
		d := MVPerBitAt(mvb, fScale)
		// Start beside a threshold, so the first float steps cross it.
		k := int(r.Uniform(-4, 11))
		marginMV := (float64(k)-0.5)*d - poff - noff
		ops := make([]byte, 300)
		for j := range ops {
			switch x := r.Uniform(0, 1); {
			case x < 0.5:
				ops[j] = 0
			case x < 0.6:
				ops[j] = byte(int(r.Uniform(33, 64)) << 2)
			case x < 0.8:
				ops[j] = byte(int(r.Uniform(28, 36))<<2 | 1)
			case x < 0.95:
				ops[j] = byte(int(r.Uniform(24, 40))<<2 | 2)
			case x < 0.98:
				ops[j] = byte(int(r.Uniform(32, 64))<<2 | 3)
			default:
				ops[j] = byte(int(r.Uniform(0, 32))<<2 | 3)
			}
		}
		hits += runReadScript(t, []*Sensor{scriptSensor(0, mvb, poff, noff, dead)}, marginMV, fScale, ops)
		reads += len(ops)
		core := scriptCore(mvb, poff, noff, dead)
		coreHits += runReadScript(t, core, marginMV, fScale, ops)
		for _, s := range core {
			if !s.dead {
				coreReads += len(ops)
			}
		}
	}
	t.Logf("memo answered %d of %d reads alone, %d of %d live reads in a core", hits, reads, coreHits, coreReads)
	if hits < reads/2 || coreHits < coreReads/2 {
		t.Errorf("memo answered %d of %d reads alone and %d of %d live core reads; a held clock should mostly hit",
			hits, reads, coreHits, coreReads)
	}
}

// FuzzSensorRead holds a memoized sensor, and a five-sensor core read
// through ReadCore (scriptCore), to the memo-free expression, read by
// read and sticky latch included, over fuzzed calibrations, starting
// margins and clocks, the dead flag and read scripts (see
// runReadScript). The seeds start one float either side of thresholds,
// at the 5 mV/bit sensitivity floor, and at NaN and infinite margins and
// clocks; some move the clock between reads of a held margin, where a
// memo left from the old divisor would answer wrongly.
func FuzzSensorRead(f *testing.F) {
	// Two reads build the memo, then single-float steps walk the margin
	// across the threshold beside it and back, reading at every float,
	// so a memo end one float too wide answers a read it must not.
	const up, down = 33<<2 | 1, 31<<2 | 1
	rest := []byte{40<<2 | 2, 0, 20<<2 | 2, 0, 40<<2 | 3, 0, 31<<2 | 1, 10<<2 | 3, 0, 0}
	walkUp := append([]byte{0, 0, up, up, up, up, up, down, down, down, down, down}, rest...)
	walkDown := append([]byte{0, 0, down, down, down, down, down, up, up, up, up, up}, rest...)
	for _, d := range []float64{21, 5} {
		for k := -3; k <= 9; k++ {
			th := (float64(k) - 0.5) * d
			for _, m := range []float64{math.Nextafter(th, math.Inf(-1)), math.Nextafter(th, math.Inf(1))} {
				f.Add(d, 1.0, m, 0.0, 0.0, false, walkUp)
				f.Add(d, 1.0, m, 0.0, 0.0, false, walkDown)
			}
		}
	}
	f.Add(21.0, 0.1, 3.0, 1.5, -0.7, false, walkUp)          // sensitivity floor
	f.Add(21.0, 1.0, math.NaN(), 0.0, 0.0, false, walkUp)    // NaN margin
	f.Add(21.0, 1.0, math.Inf(1), 0.0, 0.0, false, walkUp)   // +Inf margin
	f.Add(21.0, 1.0, math.Inf(-1), 0.0, 0.0, false, walkUp)  // −Inf margin
	f.Add(21.0, math.NaN(), 10.0, 0.0, 0.0, false, walkUp)   // NaN clock
	f.Add(21.0, math.Inf(1), 10.0, 0.0, 0.0, false, walkUp)  // infinite clock
	f.Add(21.0, 1.0, 2e15, 0.0, 0.0, false, walkUp)          // beyond the memo's limit
	f.Add(21.0, 1.0, 0.999e15, 0.0, 0.0, false, walkUp)      // at the memo's limit
	f.Add(21.0, 1.0, 10.0, 0.0, 0.0, true, walkUp)           // dead sensor
	f.Add(-21.0, 1.0, 10.0, math.Inf(1), 0.0, false, walkUp) // nonsense calibration
	// Droop latches one and two positions down between reads of a held
	// memo, across a threshold and a window close.
	latchWalk := []byte{0, 0, 48 << 2, 48 << 2, up, 40 << 2, down, 63 << 2, 0, 40<<2 | 3, 48 << 2}
	f.Add(21.0, 1.0, math.Nextafter(10.5, 0), 0.0, 0.0, false, latchWalk)
	f.Add(5.0, 1.0, math.Nextafter(2.5, 3), 0.0, 0.0, false, latchWalk)
	f.Add(21.0, 1.0, 10.0, 0.0, 0.0, true, latchWalk) // dead sensor
	// Clock drops of 1/32 and 1/1024 between reads of a held margin on
	// either side of a threshold: the first read at each new divisor
	// must divide.
	const bigDrop, smallDrop = 0<<2 | 3, 31<<2 | 3
	clockWalk := []byte{0, 0, bigDrop, 0, smallDrop, 0, 0, up, bigDrop, down, 0, smallDrop, smallDrop, 0}
	for _, d := range []float64{21, 5} {
		for k := -2; k <= 8; k++ {
			th := (float64(k) - 0.5) * d
			for _, m := range []float64{math.Nextafter(th, math.Inf(-1)), math.Nextafter(th, math.Inf(1))} {
				f.Add(d, 1.0, m, 0.0, 0.0, false, clockWalk)
			}
		}
	}
	f.Fuzz(func(t *testing.T, mvPerBitNom, fScale, marginMV, pathOffsetMV, noiseOffsetMV float64, dead bool, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runReadScript(t, []*Sensor{scriptSensor(0, mvPerBitNom, pathOffsetMV, noiseOffsetMV, dead)}, marginMV, fScale, ops)
		runReadScript(t, scriptCore(mvPerBitNom, pathOffsetMV, noiseOffsetMV, dead), marginMV, fScale, ops)
	})
}

// TestSensorSizeClass keeps the read memo inside the sensor's 160-byte
// allocation size class: every chip allocates 40 sensors, and the next
// class (176 bytes) would add 640 bytes to each chip's heap.
func TestSensorSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Sensor{}); size > 160 {
		t.Errorf("cpm.Sensor is %d bytes, past the 160-byte size class", size)
	}
}
