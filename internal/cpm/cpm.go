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
	law vf.Law

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

	// calib is the construction-time source the calibration parameters
	// were drawn from, retained so Reset can rewind the sensor to exactly
	// the state New would produce without allocating new streams.
	calib *rng.Source

	// dead simulates a failed sensor for fail-safe testing: it always
	// outputs 0 (worst case), which a correct controller treats as "no
	// margin" and refuses to undervolt on.
	dead bool

	stickyMin int
	hasSticky bool
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
	if r == nil {
		panic("cpm: nil randomness source")
	}
	if cfg.MeanMVPerBit <= 0 {
		panic(fmt.Sprintf("cpm: non-positive MeanMVPerBit %v", cfg.MeanMVPerBit))
	}
	spread := cfg.MVPerBitSpread
	mvPerBit := cfg.MeanMVPerBit * (1 + r.Uniform(-spread, spread))
	s := &Sensor{
		law:          cfg.Law,
		mvPerBitNom:  mvPerBit,
		pathOffsetMV: r.Normal(0, cfg.PathOffsetSpreadMV),
		noiseMV:      cfg.NoiseMV,
		r:            r.Split("reads"),
		calib:        r,
	}
	s.noiseOffsetMV = s.r.Normal(0, s.noiseMV)
	return s
}

// Reset rewinds the sensor to the state New(cfg, r) produces, where the
// caller has already rewound the retained calibration source (via
// rng.SplitInto from the chip's reseeded root hierarchy) to r's fresh
// state. The draw order replicates New exactly — sensitivity, path
// offset, the "reads" child split, then the first held noise realization
// — so pooled and fresh sensors emit bit-identical read sequences.
func (s *Sensor) Reset(cfg Config) {
	if cfg.MeanMVPerBit <= 0 {
		panic(fmt.Sprintf("cpm: non-positive MeanMVPerBit %v", cfg.MeanMVPerBit))
	}
	spread := cfg.MVPerBitSpread
	s.law = cfg.Law
	s.mvPerBitNom = cfg.MeanMVPerBit * (1 + s.calib.Uniform(-spread, spread))
	s.pathOffsetMV = s.calib.Normal(0, cfg.PathOffsetSpreadMV)
	s.noiseMV = cfg.NoiseMV
	s.calib.SplitInto(s.r, "reads")
	s.noiseOffsetMV = s.r.Normal(0, s.noiseMV)
	s.dead = false
	s.stickyMin = 0
	s.hasSticky = false
}

// CalibSource exposes the retained calibration source so the chip's reset
// path can rewind it in place before calling Reset.
func (s *Sensor) CalibSource() *rng.Source { return s.calib }

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
	// Sensitivity cannot collapse below a physical floor.
	return math.Max(mvPerBitNom*fScale, 5)
}

// Raw is the per-sensor read arithmetic: the output of a sensor with the
// given calibration and held window noise, for one core's read terms,
// before the sticky latch sees it. Sensor.Read and the batched kernel's
// structure-of-arrays sensors both read through it.
func Raw(t Terms, dead bool, pathOffsetMV, noiseOffsetMV, mvPerBitNom float64) int {
	if dead {
		return 0
	}
	marginMV := t.MarginMV + pathOffsetMV
	marginMV += noiseOffsetMV
	raw := CalibTarget + int(math.Round(marginMV/MVPerBitAt(mvPerBitNom, t.FScale)))
	if raw < 0 {
		raw = 0
	}
	if raw > MaxValue {
		raw = MaxValue
	}
	return raw
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
// Read(CoreTerms(law, v, f)).
func (s *Sensor) Read(t Terms) int {
	raw := Raw(t, s.dead, s.pathOffsetMV, s.noiseOffsetMV, s.mvPerBitNom)
	s.observeSticky(raw)
	return raw
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
	if !s.hasSticky || v < s.stickyMin {
		s.stickyMin = v
		s.hasSticky = true
	}
}

// Sticky returns the minimum output observed since the last StickyReset
// (the paper's sticky-mode AMESTER read: "the worst-case, i.e. smallest,
// output of each CPM during the past 32 ms"). The second result reports
// whether any observation occurred.
func (s *Sensor) Sticky() (int, bool) {
	return s.stickyMin, s.hasSticky
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

// BatchState exposes the calibration and window state the batched stepping
// engine gathers into its structure-of-arrays mirror: the nominal
// sensitivity, path offset, held noise realization, dead flag, and sticky
// latch. The engine reads these through Raw, as Read does.
func (s *Sensor) BatchState() (mvPerBitNom, pathOffsetMV, noiseOffsetMV float64, dead bool, stickyMin int, hasSticky bool) {
	return s.mvPerBitNom, s.pathOffsetMV, s.noiseOffsetMV, s.dead, s.stickyMin, s.hasSticky
}

// NoiseOffsetMV returns the held per-window noise realization; the batched
// engine re-reads it after each StickyReset redraw.
func (s *Sensor) NoiseOffsetMV() float64 { return s.noiseOffsetMV }

// RestoreSticky overwrites the sticky latch — the batched engine's scatter
// path, writing back the window minimum its mirrored reads accumulated.
func (s *Sensor) RestoreSticky(stickyMin int, hasSticky bool) {
	s.stickyMin = stickyMin
	s.hasSticky = hasSticky
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
