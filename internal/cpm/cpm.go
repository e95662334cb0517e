// Package cpm models the POWER7+ critical path monitors: per-core timing
// margin sensors built from synthetic delay paths feeding a 12-position
// edge detector (paper §2.2, Fig. 2b).
//
// Each cycle an edge is launched through the synthetic paths; the position
// it reaches in the edge detector by the next clock edge is the CPM output,
// an integer 0..11. More supply voltage (at fixed frequency) means faster
// propagation and a higher output; higher frequency (at fixed voltage)
// means less cycle time and a lower output. The paper calibrates ~21 mV per
// CPM bit at peak frequency (Fig. 6a) with 10-30 mV/bit spread across
// sensors and frequencies (Fig. 6b), which this model reproduces through
// per-sensor process-variation parameters.
//
// A read is the quantized affine function clamp(CalibTarget +
// round(m/d), 0, MaxValue) of the sensor's margin m, at a divisor d fixed
// by its sensitivity and the core's clock. Every clocked core's sensors
// read every 1 ms micro-step, one core at a time: ReadCore reads a core's
// sensors in one pass at the core's read terms, with every branch of a
// read inline but the memo's interval search, and Read is that pass on
// one sensor. Each Sensor keeps a read memo: the exact interval of
// margins that read as its last output at its current divisor. A read
// with the same divisor, bit for bit, and a margin inside the interval
// returns the output without dividing.
//
// The memo is exact, and reading one core at a time leaves the argument
// as it was: division by a positive divisor and the rounding are
// monotone, so one output's margins form an interval, and its ends are
// found by walking float by float from the rounded threshold to the last
// float that reads the output. It covers margins within ±1e15 mV; larger
// ones read directly, since the quotient's conversion wraps past ±2⁶³.
// The memo is not simulation state: it caches a pure function of margin
// and divisor, keyed by the divisor itself, so after Reset, a snapshot
// Load, a mode switch or Kill it can only miss or return the right
// output, and the snapshot codec skips it. Reads at a held clock hit —
// Static and Undervolt cores, about 99% of reads on the exact lane; a
// threshold crossing misses once and searches; an overclocked core's
// clock moves every step, so its reads mostly miss, and a new divisor
// only keys an empty memo, so they pay no search. A droop's latch-only
// read (Latch) bypasses the memo, which stays at the steady read.
package cpm

import (
	"fmt"
	"math"

	"agsim/internal/rng"
	"agsim/internal/units"
	"agsim/internal/vf"
)

// Positions is the number of edge-detector positions (a 12-bit detector).
const Positions = 12

// MaxValue is the highest CPM output.
const MaxValue = Positions - 1

// CalibTarget is the output value the calibration procedure aims each CPM
// at; with adaptive guardbanding active the control loop holds the worst
// CPM here (paper §4.1: "CPMs typically hover around an output value of 2").
const CalibTarget = 2

// Sensor is one critical path monitor.
type Sensor struct {
	// law is the chip's immutable V–f law, copied in by Reset. It is
	// configuration, not state, so the snapshot codec skips it: a restore
	// target was built with the same law.
	law vf.Law `snapshot:"-"`

	// mvPerBitNom is this sensor's millivolts of supply slack per detector
	// position at the nominal peak frequency; ~21 mV on average with
	// process-variation spread across sensors.
	mvPerBitNom float64

	// pathOffsetMV shifts this sensor's synthetic path speed relative to
	// the chip's true critical path (calibration error + local process
	// variation). Positive means the sensor is pessimistic.
	pathOffsetMV float64

	// noiseMV scales the measurement noise; noiseOffsetMV is the held
	// noise realization, redrawn once per sticky window (at StickyReset)
	// rather than per read. At the millisecond step every read inside a
	// window sees essentially the same electrical state anyway, and a
	// per-window draw makes the read sequence independent of how many
	// reads happen in the window — which is what lets settled chips skip
	// reads entirely during macro-steps without perturbing the RNG stream.
	noiseMV       float64
	noiseOffsetMV float64

	r *rng.Source

	// The read memo (see the package comment): margins in [memoLo,
	// memoHi] read memoOut at divisor memoDiv. A cache, not state, so the
	// snapshot codec skips it.
	memoDiv, memoLo, memoHi float64 `snapshot:"-"`

	// dead simulates a failed sensor for fail-safe testing: it always
	// outputs 0 (worst case), which a correct controller treats as "no
	// margin" and refuses to undervolt on.
	dead bool

	// stickyMin is the lowest output since the window opened, when
	// hasSticky; one byte holds every output 0..MaxValue.
	stickyMin int8
	hasSticky bool

	memoOut int8 `snapshot:"-"`
}

// Config controls sensor construction.
type Config struct {
	Law vf.Law
	// MeanMVPerBit is the population mean sensitivity at peak frequency
	// (paper: ~21 mV/bit).
	MeanMVPerBit float64
	// MVPerBitSpread is the fractional process-variation spread of
	// sensitivity across sensors (Fig. 6b shows roughly ±25%).
	MVPerBitSpread float64
	// PathOffsetSpreadMV is the standard deviation of per-sensor path
	// calibration error.
	PathOffsetSpreadMV float64
	// NoiseMV is per-read measurement noise.
	NoiseMV float64
}

// DefaultConfig returns the Fig. 6 calibration.
func DefaultConfig(law vf.Law) Config {
	return Config{
		Law:                law,
		MeanMVPerBit:       21,
		MVPerBitSpread:     0.22,
		PathOffsetSpreadMV: 4,
		NoiseMV:            1.5,
	}
}

// New creates one sensor with parameters drawn from the population
// distribution in cfg using r (must not be nil: sensors are always
// instantiated with process variation, a zero-variation chip hides
// calibration bugs).
func New(cfg Config, r *rng.Source) *Sensor {
	s := new(Sensor)
	s.Reset(cfg, r)
	return s
}

// Reset sets the sensor's whole state, for New and for a pooled chip's
// rewind: it draws the calibration parameters from r — sensitivity, then
// path offset — splits the sensor's read stream off r, and draws the
// first held noise realization from it. r is read only here, so a chip
// can pass one stream it rewinds for every sensor. The zero Sensor is a
// valid receiver; a live one reuses its read stream without allocating.
func (s *Sensor) Reset(cfg Config, r *rng.Source) {
	if r == nil {
		panic("cpm: nil randomness source")
	}
	if cfg.MeanMVPerBit <= 0 {
		panic(fmt.Sprintf("cpm: non-positive MeanMVPerBit %v", cfg.MeanMVPerBit))
	}
	if s.r == nil {
		s.r = new(rng.Source)
	}
	spread := cfg.MVPerBitSpread
	s.law = cfg.Law
	s.mvPerBitNom = cfg.MeanMVPerBit * (1 + r.Uniform(-spread, spread))
	s.pathOffsetMV = r.Normal(0, cfg.PathOffsetSpreadMV)
	s.noiseMV = cfg.NoiseMV
	r.SplitInto(s.r, "reads")
	s.noiseOffsetMV = s.r.Normal(0, s.noiseMV)
	s.dead = false
	s.stickyMin = 0
	s.hasSticky = false
}

// Terms is the law-dependent part of a read at one voltage and frequency.
// It is the same for every sensor on a core, so a step computes it once
// per core (CoreTerms) and each of the core's sensors applies only its own
// calibration to it (Read, Raw).
type Terms struct {
	// MarginMV is the timing margin above the residual guardband,
	// MarginMV(v, f) − ResidualMV.
	MarginMV float64
	// FScale is f / FNom, the cycle-time pressure on each sensor's
	// sensitivity.
	FScale float64
}

// CoreTerms returns the read terms at voltage v and frequency f under law,
// which must be the law the sensors were configured with.
func CoreTerms(law *vf.Law, v units.Millivolt, f units.Megahertz) Terms {
	return Terms{
		MarginMV: float64(law.MarginMV(v, f)) - float64(law.ResidualMV),
		FScale:   float64(f) / float64(law.FNom),
	}
}

// MVPerBitAt returns the sensitivity of a sensor with nominal sensitivity
// mvPerBitNom at frequency scale fScale (Terms.FScale). Delay elements are
// a fixed fraction of the cycle, so the voltage worth of one detector
// position scales with cycle time pressure: faster clocks leave fewer
// millivolts per position.
func MVPerBitAt(mvPerBitNom, fScale float64) float64 {
	// Sensitivity cannot collapse below a physical floor. The comparison
	// is max(d, 5) for every d, NaN included, without the builtin's
	// signed-zero and NaN handling, which a read's critical path would
	// wait on.
	d := mvPerBitNom * fScale
	if d < 5 {
		return 5
	}
	return d
}

// rawAt is the output for margin marginMV at divisor mvPerBit:
// CalibTarget plus the rounded quotient, clamped to the detector.
func rawAt(marginMV, mvPerBit float64) int {
	return min(max(CalibTarget+roundHalfAway(marginMV/mvPerBit), 0), MaxValue)
}

// roundHalfAway returns int(math.Round(q)) without the call: it
// truncates and compares the exact remainder with ½. Beyond ±2⁵² every
// float is an integer, so there, and for NaN and the infinities,
// math.Round(q) is q and the conversion alone is the expression, whatever
// it returns on the host for values outside int range.
func roundHalfAway(q float64) int {
	n := int(q)
	if q > -0x1p52 && q < 0x1p52 {
		// q − n is exact: both share a sign and n is q's integral part.
		if r := q - float64(n); r >= 0.5 {
			n++
		} else if r <= -0.5 {
			n--
		}
	}
	return n
}

// memoLimitMV bounds the margins the read memo covers. Inside it the
// quotient stays far within int range, where the read is monotone in the
// margin; past ±2⁶³ the conversion wraps, so larger margins read
// directly.
const memoLimitMV = 1e15

// remember returns the read of margin marginMV at the memo's divisor
// mvPerBit, a margin outside the memo's interval, and keeps the interval
// of the new output when the margin is within ±memoLimitMV. A margin
// that crossed into the next output up or down starts its interval one
// float past the end it crossed, which was exact, so only the far end
// needs a search.
func (s *Sensor) remember(marginMV, mvPerBit float64) int {
	out := rawAt(marginMV, mvPerBit)
	if !(marginMV >= -memoLimitMV && marginMV <= memoLimitMV) {
		return out
	}
	lo, hi := s.memoLo, s.memoHi
	switch held := lo <= hi; {
	case held && out == int(s.memoOut)+1:
		lo, hi = math.Nextafter(hi, math.Inf(1)), highEnd(marginMV, mvPerBit, out)
	case held && out == int(s.memoOut)-1:
		lo, hi = lowEnd(marginMV, mvPerBit, out), math.Nextafter(lo, math.Inf(-1))
	default:
		lo, hi = lowEnd(marginMV, mvPerBit, out), highEnd(marginMV, mvPerBit, out)
	}
	s.memoLo, s.memoHi, s.memoOut = lo, hi, int8(out)
	return out
}

// lowEnd and highEnd bound the interval within ±memoLimitMV on which
// every margin reads out at divisor mvPerBit, given that marginMV, inside
// the limit, does. The read is monotone in the margin there, so the low
// end is the least margin reading at least out and the high end the
// greatest reading at most out. Each starts from its threshold
// (out − CalibTarget ∓ ½)·mvPerBit, which the rounded product misses by
// an ulp or so, and walks to the exact end one float at a time.
func lowEnd(marginMV, mvPerBit float64, out int) float64 {
	if out == 0 {
		return -memoLimitMV
	}
	lo := min(max((float64(out-CalibTarget)-0.5)*mvPerBit, -memoLimitMV), marginMV)
	if rawAt(lo, mvPerBit) < out {
		for {
			lo = math.Nextafter(lo, math.Inf(1))
			if rawAt(lo, mvPerBit) >= out {
				return lo
			}
		}
	}
	for lo > -memoLimitMV {
		next := math.Nextafter(lo, math.Inf(-1))
		if rawAt(next, mvPerBit) < out {
			break
		}
		lo = next
	}
	return lo
}

func highEnd(marginMV, mvPerBit float64, out int) float64 {
	if out == MaxValue {
		return memoLimitMV
	}
	hi := max(min((float64(out-CalibTarget)+0.5)*mvPerBit, memoLimitMV), marginMV)
	if rawAt(hi, mvPerBit) > out {
		for {
			hi = math.Nextafter(hi, math.Inf(-1))
			if rawAt(hi, mvPerBit) <= out {
				return hi
			}
		}
	}
	for hi < memoLimitMV {
		next := math.Nextafter(hi, math.Inf(1))
		if rawAt(next, mvPerBit) > out {
			break
		}
		hi = next
	}
	return hi
}

// MVPerBit returns the sensor's sensitivity at frequency f.
func (s *Sensor) MVPerBit(f units.Megahertz) float64 {
	return MVPerBitAt(s.mvPerBitNom, float64(f)/float64(s.law.FNom))
}

// Value returns the CPM output for on-chip voltage v at frequency f.
// The mapping is the affine law Fig. 6a measures: the calibration target
// position corresponds to the residual margin above the circuit's V_req,
// and each additional MVPerBit of slack moves the edge one position.
func (s *Sensor) Value(v units.Millivolt, f units.Megahertz) int {
	return s.Read(CoreTerms(&s.law, v, f))
}

// Read returns the CPM output for read terms computed by CoreTerms under
// the sensor's law, latching it like Value: Value(v, f) is
// Read(CoreTerms(law, v, f)). It is ReadCore on this one sensor.
func (s *Sensor) Read(t Terms) int {
	var out [1]int
	ReadCore([]*Sensor{s}, t, out[:])
	return out[0]
}

// ReadCore reads a core's sensors at read terms t computed by CoreTerms
// under their law, storing sensor i's output in out[i] and feeding it to
// that sensor's sticky latch. out must be at least as long as sensors.
// A clocked core's sensors read every micro-step, so the step reads them
// in this one call, whose loop runs every branch of a read inline — a
// dead sensor's 0, a new divisor's direct read, the read memo's answer
// (see the package comment), the sticky latch — and calls out only for
// the memo's interval search.
func ReadCore(sensors []*Sensor, t Terms, out []int) {
	out = out[:len(sensors)]
	for i, s := range sensors {
		v := 0
		if !s.dead {
			m, d := s.operands(t)
			switch {
			case d != s.memoDiv:
				// A new divisor keys an empty memo. The interval search
				// waits until the divisor repeats, so a moving clock pays
				// none.
				v = rawAt(m, d)
				s.memoDiv, s.memoLo, s.memoHi = d, 1, 0
			case m >= s.memoLo && m <= s.memoHi:
				v = int(s.memoOut)
			default:
				v = s.remember(m, d)
			}
		}
		s.observeSticky(v)
		out[i] = v
	}
}

// Latch feeds the sticky latch the output Read(t) would return and
// leaves the read memo alone. A droop latches a voltage the next step
// does not read, so moving the memo there would cost that read a search.
func (s *Sensor) Latch(t Terms) {
	out := 0
	if !s.dead {
		out = rawAt(s.operands(t))
	}
	s.observeSticky(out)
}

// operands returns the margin and divisor a read with terms t quantizes:
// the terms' margin plus the path offset, then plus the held noise, and
// the sensitivity at the terms' clock.
func (s *Sensor) operands(t Terms) (marginMV, mvPerBit float64) {
	marginMV = t.MarginMV + s.pathOffsetMV
	marginMV += s.noiseOffsetMV
	return marginMV, MVPerBitAt(s.mvPerBitNom, t.FScale)
}

// DetMarginMV returns the deterministic component of a read with terms t —
// everything in Read except the held noise realization. The fast-forward
// tick path precomputes it once per frozen span: the electricals don't
// move between windows, so only the per-window noise redraw changes what
// a read returns.
func (s *Sensor) DetMarginMV(t Terms) float64 {
	return t.MarginMV + s.pathOffsetMV
}

func (s *Sensor) observeSticky(v int) {
	if !s.hasSticky || v < int(s.stickyMin) {
		s.stickyMin = int8(v)
		s.hasSticky = true
	}
}

// Sticky returns the minimum output observed since the last StickyReset
// (the paper's sticky-mode AMESTER read: "the worst-case, i.e. smallest,
// output of each CPM during the past 32 ms"). The second result reports
// whether any observation occurred.
func (s *Sensor) Sticky() (int, bool) {
	return int(s.stickyMin), s.hasSticky
}

// StickyReset clears the sticky latch and redraws the held measurement
// noise for the next window (the firmware reads stickies once per 32 ms
// telemetry window, so this pins one noise realization per window).
func (s *Sensor) StickyReset() {
	s.hasSticky = false
	s.stickyMin = 0
	s.noiseOffsetMV = s.r.Normal(0, s.noiseMV)
}

// ClearSticky clears the sticky latch without redrawing the held noise.
// The fast-forward tick path uses it for sensors whose reads provably
// cannot reach the chip-wide minimum this span: their window draws are
// skipped and their noise stream left untouched.
func (s *Sensor) ClearSticky() {
	s.hasSticky = false
	s.stickyMin = 0
}

// Kill marks the sensor failed (stuck at worst-case output).
func (s *Sensor) Kill() { s.dead = true }

// Dead reports whether the sensor has been killed.
func (s *Sensor) Dead() bool { return s.dead }

// VoltageFromValue inverts the sensor mapping: given an observed output at
// frequency f, estimate the on-chip voltage. This is the paper's §4.1
// methodology of using CPMs as on-chip voltage "performance counters";
// the estimate carries the sensor's quantization (±half a bit).
func (s *Sensor) VoltageFromValue(value int, f units.Megahertz) units.Millivolt {
	marginMV := float64(value-CalibTarget)*s.MVPerBit(f) - s.pathOffsetMV
	return s.law.VReq(f) + s.law.ResidualMV + units.Millivolt(marginMV)
}
