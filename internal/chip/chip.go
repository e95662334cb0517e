// Package chip assembles the POWER7+ processor model: eight out-of-order
// cores on a shared Vdd plane, five critical path monitors per core, a
// per-core DPLL, an off-chip VRM rail with loadline, the on-chip PDN, the
// chip-wide di/dt noise process, and the firmware guardband controller
// driving it all on a 32 ms tick.
//
// A Chip advances in discrete time steps (default 1 ms). Each step closes
// the electrical loop — workload activity → power → current → loadline and
// IR drop → on-chip voltage → CPM readings → DPLL/firmware reaction — and
// advances the threads by the work they retired at the step's conditions.
package chip

import (
	"fmt"

	"agsim/internal/cpm"
	"agsim/internal/didt"
	"agsim/internal/dpll"
	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/pdn"
	"agsim/internal/power"
	"agsim/internal/rng"
	"agsim/internal/tsdb"
	"agsim/internal/units"
	"agsim/internal/vf"
	"agsim/internal/vrm"
	"agsim/internal/workload"
)

// CPMsPerCore matches the POWER7+ (paper §2.2: "Each core has 5 CPMs placed
// in different units").
const CPMsPerCore = 5

// Config assembles a chip. Zero values select the calibrated defaults.
type Config struct {
	Name  string
	Cores int

	Law   vf.Law
	Power power.Params
	PDN   pdn.Params
	// Mesh, when non-nil, replaces the lumped PDN with the distributed
	// grid solver (pdn.Mesh) for higher-fidelity drop spatial structure.
	Mesh *pdn.MeshParams
	Didt didt.Params
	CPM  cpm.Config

	// LoadlineMilliohm is this socket's share of the VRM loadline plus
	// board path resistance.
	LoadlineMilliohm float64
	// RailMaxCurrent is the rail's current limit.
	RailMaxCurrent units.Ampere

	// AmbientC is the inlet temperature; chip temperature settles at
	// ambient plus thermal resistance times power.
	AmbientC units.Celsius
	// ThermalResCPerW and ThermalTauSec define the first-order package
	// thermal model; ThermalResCoreCPerW adds each core's private rise
	// above the package for its own dissipation.
	ThermalResCPerW     float64
	ThermalResCoreCPerW float64
	ThermalTauSec       float64

	Seed uint64

	// Exact disables the multi-rate stepping engine: every Advance call
	// decomposes into pure 1 ms micro-steps. This is the golden reference
	// lane the macro lane's accuracy harness compares against.
	Exact bool

	// Recorder, when non-nil, is the flight recorder the chip emits
	// counters, gauges and structured events into (see internal/obs). The
	// chip registers itself as a source under its configured Name. A nil
	// recorder costs one pointer test per emission site.
	Recorder *obs.Recorder
}

// DefaultConfig returns the calibrated POWER7+ configuration (DESIGN.md §4).
func DefaultConfig(name string, seed uint64) Config {
	law := vf.Default()
	return Config{
		Name:                name,
		Cores:               8,
		Law:                 law,
		Power:               power.DefaultParams(),
		PDN:                 pdn.DefaultParams(),
		Didt:                didt.DefaultParams(),
		CPM:                 cpm.DefaultConfig(law),
		LoadlineMilliohm:    0.55,
		RailMaxCurrent:      220,
		AmbientC:            24,
		ThermalResCPerW:     0.06,
		ThermalResCoreCPerW: 0.8,
		ThermalTauSec:       3,
		Seed:                seed,
	}
}

// WithMesh returns the config with the distributed-grid PDN enabled at
// the default mesh calibration (pdn.DefaultMeshParams), the mesh-fidelity
// lane every experiment driver can run in.
func (c Config) WithMesh() Config {
	mp := pdn.DefaultMeshParams()
	c.Mesh = &mp
	return c
}

// validate reports the first inconsistent parameter, or nil.
func (c Config) validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("chip %s: need at least one core", c.Name)
	}
	if err := c.Law.Validate(); err != nil {
		return err
	}
	if err := c.Power.Validate(); err != nil {
		return err
	}
	if err := c.PDN.Validate(); err != nil {
		return err
	}
	if c.PDN.Cores != c.Cores {
		return fmt.Errorf("chip %s: PDN has %d cores, chip has %d", c.Name, c.PDN.Cores, c.Cores)
	}
	if c.LoadlineMilliohm < 0 {
		return fmt.Errorf("chip %s: negative loadline", c.Name)
	}
	return nil
}

// Core is one processor core and its private guardband hardware.
type Core struct {
	Index int

	state   power.CoreState
	threads []*workload.Thread
	dpll    *dpll.DPLL
	cpms    []*cpm.Sensor

	// memFactor inflates the memory-stall time of this core's threads;
	// the server sets it each step from bandwidth contention and
	// cross-socket sharing.
	memFactor float64

	// issueThrottle in (0,1] scales instruction issue; 1 is unthrottled.
	// The paper throttles fetch to one instruction per 128 cycles for the
	// Fig. 6 CPM calibration and constructs Fig. 17's co-runners by
	// constraining issue rate.
	issueThrottle float64

	// Electrical state from the last step.
	voltageDC  units.Millivolt // DC operating point after passive drop
	voltageMin units.Millivolt // bottom of the typical ripple
	lastPower  units.Watt
	lastMIPS   units.MIPS
	lastCPM    []int // last sample-mode CPM outputs

	// lastWindowSticky holds each CPM's minimum over the most recently
	// completed 32 ms window — what an AMESTER sticky-mode read returns.
	lastWindowSticky []int

	// tempC is the core's own junction temperature; hotter cores leak
	// more, which couples placement decisions back into power.
	tempC units.Celsius
}

// State returns the core's power state.
func (co *Core) State() power.CoreState { return co.state }

// Freq returns the core's current clock frequency.
func (co *Core) Freq() units.Megahertz { return co.dpll.Freq() }

// Threads returns the threads currently placed on the core.
func (co *Core) Threads() []*workload.Thread { return co.threads }

// Chip is the assembled processor.
type Chip struct {
	cfg Config
	// shapeKey caches cfg.ShapeKey(): the shape fields never change after
	// construction (Reset rewrites only the per-point identity, which the
	// key excludes), and pooled paths look the key up per acquire/release.
	// It is not imaged: Load checks the image header's key against it.
	shapeKey string `snapshot:"-"`
	cores    []*Core
	plane    pdn.Network
	rail     *vrm.Rail
	ctrl     *firmware.Controller
	noise    *didt.Model

	timeSec   float64
	sinceTick float64
	tempC     units.Celsius

	lastSample    didt.Sample
	lastChipPower units.Watt
	lastCurrent   units.Ampere
	lastRailV     units.Millivolt
	lastDrops     []units.Millivolt

	// lastWindowWorstDidt is the deepest droop of the most recently
	// completed 32 ms window, in mV beyond the DC level.
	lastWindowWorstDidt float64

	// energyJ accumulates chip energy; experiments read and reset it.
	energyJ float64

	// agingMV models transistor wear (NBTI/HCI): the circuit needs this
	// many extra millivolts to close timing at a given frequency. The
	// static guardband exists partly to absorb it blind; the CPMs sense it
	// directly, so adaptive guardbanding compensates (less undervolt, or a
	// lower settled frequency) instead of silently losing margin.
	agingMV float64

	// marginViolations counts core-steps whose effective timing margin was
	// negative — silent timing failures a statically guardbanded part
	// would hit once aging (or drop) exceeds its margin.
	marginViolations int

	// Step-loop scratch, reused every step so the hot path allocates
	// nothing. Their presence is why a Chip is NOT safe for concurrent
	// Step calls; parallelism lives above the chip (sweep points, fleet
	// shards), where each unit owns its own Chip. Every step writes each
	// entry it reads, so the scratch is not imaged.
	scratchCurrents []units.Ampere    `snapshot:"-"`
	scratchProfiles []didt.Profile    `snapshot:"-"`
	scratchDrops    []units.Millivolt `snapshot:"-"`

	// Frozen-span read model for the fast-forward tick path (see
	// sample.go): per sensor (flat in core-major order), the deterministic
	// margin at the held operating point, the sensitivity at the held
	// frequency, and the per-position tail probabilities of its window
	// read; from those, the chip-minimum tail distribution and the
	// cumulative first-argmin weights the frozen ticks sample from. Valid
	// only inside a FastForward span, which builds it before its first
	// tick; refreshed on rail commands. Entries no tick can read are 0
	// (see refreshFrozenReadCache). Only frozen ticks read it, and a macro
	// leap never ticks (MacroStep panics if it does), so the model is a
	// cache and is not imaged.
	frozenDetMV     []float64                 `snapshot:"-"`
	frozenMVB       []float64                 `snapshot:"-"`
	frozenQ         []float64                 `snapshot:"-"` // P(read_k >= b), flat k*frozenRowLen+b
	frozenSuf       []float64                 `snapshot:"-"` // suffix-product scratch, len sensors+1
	frozenArgW      []float64                 `snapshot:"-"` // cumulative argmin weights, flat b*sensors+k
	frozenTail      [cpm.MaxValue + 2]float64 `snapshot:"-"`
	frozenAnyDead   bool                      `snapshot:"-"`
	frozenNoSensors bool                      `snapshot:"-"`
	frozenCarry     bool
	frozenRNG       *rng.Source

	// Multi-rate stepping state (see macro.go). exact pins the chip to the
	// 1 ms reference lane. stable is how far the quiescence proof has got
	// since markDirty last cleared it: 0 with no movement on record, 1 with
	// one (lastMove, the last micro-step's largest movement in band units,
	// measured against the prev* snapshots), quiescentAfter once the last
	// two movements prove the relaxation settled. Any mutation that can
	// move the operating point resets stable via markDirty.
	exact     bool
	stable    int
	lastMove  float64
	prevRailV units.Millivolt
	prevCoreV []units.Millivolt
	prevCoreF []units.Megahertz

	// Flight recorder handle and this chip's source index in it (nil/-1
	// when unattached; every obs method is nil-safe).
	rec *obs.Recorder
	src int32

	// Telemetry time-series handles (see internal/tsdb), nil unless the
	// recorder has EnableTimeSeries on; every tsdb method is nil-safe, so
	// the step loop pushes unconditionally. tsPower/tsFreq/tsRail sample
	// every micro-step (backfilled analytically across leaps and
	// fast-forwards, where they are constant by construction); tsMargin
	// samples the sensed margin in CPM bits at every firmware tick.
	tsPower  *tsdb.Series
	tsFreq   *tsdb.Series
	tsRail   *tsdb.Series
	tsMargin *tsdb.Series

	// lastHorizon* remember what HorizonSec last computed so MacroStep can
	// attribute the leap: when the server leaps its chips by a shorter
	// synchronized minimum, the reason becomes obs.ReasonExternal. They
	// are scratch: only the MacroStep right after a HorizonSec reads them,
	// and every leap runs HorizonSec first, so no image carries them.
	lastHorizonSec    float64    `snapshot:"-"`
	lastHorizonReason obs.Reason `snapshot:"-"`

	// The RNG hierarchy the rewind walks: root splits the di/dt stream
	// (noiseSrc, the noise model's own) and each core's sensor parent
	// (coreWalk), which splits each sensor's calibration stream
	// (sensorWalk). The walk streams are reused for every core and sensor
	// and nothing draws from them between rewinds, so they are storage,
	// not state, and noiseSrc is imaged through the model.
	root       *rng.Source
	noiseSrc   *rng.Source `snapshot:"-"`
	coreWalk   *rng.Source `snapshot:"-"`
	sensorWalk *rng.Source `snapshot:"-"`
}

// sensorSplitNames are the per-sensor split names within a core.
var sensorSplitNames = func() [CPMsPerCore]string {
	var names [CPMsPerCore]string
	for j := range names {
		names[j] = fmt.Sprintf("s%d", j)
	}
	return names
}()

// coreSplitNames are the per-core sensor-parent split names of the
// default eight-core chip; coreSplitName formats any core past them.
var coreSplitNames = func() [8]string {
	var names [8]string
	for i := range names {
		names[i] = fmt.Sprintf("cpm/core%d", i)
	}
	return names
}()

func coreSplitName(i int) string {
	if i < len(coreSplitNames) {
		return coreSplitNames[i]
	}
	return fmt.Sprintf("cpm/core%d", i)
}

// New builds a chip from the configuration: it allocates the chip's
// storage and runs the rewind a pooled chip's Reset runs (reset.go),
// which sets every piece of state.
func New(cfg Config) (*Chip, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var plane pdn.Network
	var err error
	if cfg.Mesh != nil {
		mp := *cfg.Mesh
		mp.Cores = cfg.Cores
		// The mesh kernel is immutable and a pure function of its params,
		// so every chip on the same topology shares one factorized kernel.
		plane, err = pdn.SharedMesh(mp)
	} else {
		plane, err = pdn.New(cfg.PDN)
	}
	if err != nil {
		return nil, err
	}
	rail, err := vrm.NewRail(cfg.Name+"/vdd", cfg.LoadlineMilliohm, cfg.Law.VNom, cfg.Law.VNom+50, cfg.RailMaxCurrent)
	if err != nil {
		return nil, err
	}
	n := cfg.Cores
	ch := &Chip{
		cfg:      cfg,
		shapeKey: cfg.ShapeKey(),
		cores:    make([]*Core, n),
		plane:    plane,
		rail:     rail,
		ctrl:     new(firmware.Controller),
		noise:    new(didt.Model),

		lastDrops:       make([]units.Millivolt, n),
		scratchCurrents: make([]units.Ampere, n),
		scratchProfiles: make([]didt.Profile, 0, n),
		scratchDrops:    make([]units.Millivolt, n),
		frozenDetMV:     make([]float64, n*CPMsPerCore),
		frozenMVB:       make([]float64, n*CPMsPerCore),
		frozenQ:         make([]float64, n*CPMsPerCore*frozenRowLen),
		frozenSuf:       make([]float64, n*CPMsPerCore+1),
		frozenArgW:      make([]float64, (cpm.MaxValue+1)*n*CPMsPerCore),
		frozenRNG:       new(rng.Source),
		prevCoreV:       make([]units.Millivolt, n),
		prevCoreF:       make([]units.Megahertz, n),

		root:       new(rng.Source),
		noiseSrc:   new(rng.Source),
		coreWalk:   new(rng.Source),
		sensorWalk: new(rng.Source),
	}
	// Each core's thread slice starts empty, never nil, with one slot in
	// a backing array the cores share; ClearCore and Reset truncate it.
	threads := make([]*workload.Thread, n)
	for i := range ch.cores {
		co := &Core{
			Index:            i,
			threads:          threads[i : i : i+1],
			dpll:             new(dpll.DPLL),
			cpms:             make([]*cpm.Sensor, CPMsPerCore),
			lastCPM:          make([]int, CPMsPerCore),
			lastWindowSticky: make([]int, CPMsPerCore),
		}
		for j := range co.cpms {
			co.cpms[j] = new(cpm.Sensor)
		}
		ch.cores[i] = co
	}
	ch.rewind()
	return ch, nil
}

// bindSeries registers (or re-registers after Reset) the chip's telemetry
// time-series on its recorder. No-op handles when the recorder is nil or
// has no time-series enabled.
func (c *Chip) bindSeries() {
	c.tsPower = c.rec.Series(c.src, "power_w")
	c.tsFreq = c.rec.Series(c.src, "freq_mhz")
	c.tsRail = c.rec.Series(c.src, "rail_mv")
	c.tsMargin = c.rec.Series(c.src, "margin_bits")
}

// frozenRowLen is the length of one sensor's row of position tails in the
// frozen read model: positions 0 through cpm.MaxValue+1.
const frozenRowLen = cpm.MaxValue + 2

// stepGridUS is the micro-step telemetry grid in integer microseconds —
// the stride Fill backfills at across leaps and fast-forwards.
const stepGridUS = int64(DefaultStepSec * 1e6)

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *Chip {
	ch, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return ch
}

// Name returns the chip's configured name.
func (c *Chip) Name() string { return c.cfg.Name }

// Cores returns the core count.
func (c *Chip) Cores() int { return len(c.cores) }

// Core returns core i.
func (c *Chip) Core(i int) *Core { return c.cores[i] }

// Law returns the chip's voltage-frequency law.
func (c *Chip) Law() vf.Law { return c.cfg.Law }

// Controller exposes the firmware controller (mode selection).
func (c *Chip) Controller() *firmware.Controller { return c.ctrl }

// Rail exposes the chip's VRM rail (set point, current sensor).
func (c *Chip) Rail() *vrm.Rail { return c.rail }

// SetMode switches the guardband mode and applies the mode's entry policy:
// nominal voltage for Static/Overclock, target frequency for
// Static/Undervolt. Manual mode freezes both for characterization sweeps.
func (c *Chip) SetMode(m firmware.Mode) {
	c.markDirty()
	if c.rec != nil {
		c.rec.Inc(c.src, obs.CModeChanges)
		c.rec.Emit(obs.Event{TimeUS: obs.StampUS(c.timeSec), Kind: obs.KindDVFS,
			Source: c.src, Core: -1, C: int64(m)})
	}
	c.ctrl.SetMode(m)
	switch m {
	case firmware.Static:
		c.rail.Command(c.cfg.Law.VNom)
		for _, co := range c.cores {
			co.dpll.SetFreq(c.cfg.Law.FNom)
		}
	case firmware.Undervolt:
		for _, co := range c.cores {
			co.dpll.SetFreq(c.cfg.Law.FNom)
		}
	case firmware.Overclock:
		c.rail.Command(c.cfg.Law.VNom)
	case firmware.Manual:
		// leave voltage and frequency wherever the experimenter put them
	}
}

// SetManual places the chip in Manual (characterization) mode at the given
// operating point, as the paper does to let CPM outputs float (§4.1).
func (c *Chip) SetManual(v units.Millivolt, f units.Megahertz) {
	c.markDirty()
	if c.rec != nil {
		c.rec.Inc(c.src, obs.CModeChanges)
		c.rec.Emit(obs.Event{TimeUS: obs.StampUS(c.timeSec), Kind: obs.KindDVFS,
			Source: c.src, Core: -1, A: float64(v), B: float64(f), C: int64(firmware.Manual)})
	}
	c.ctrl.SetMode(firmware.Manual)
	c.rail.Command(v)
	for _, co := range c.cores {
		co.dpll.SetFreq(f)
	}
}

// SetPState runs the chip at DVFS operating point idx of an n-point table —
// the conventional governor alternative to adaptive guardbanding. The chip
// operates with the full static guardband at the point's voltage.
func (c *Chip) SetPState(idx, tablePoints int) {
	table := c.cfg.Law.DVFSTable(tablePoints)
	if idx < 0 || idx >= len(table) {
		panic(fmt.Sprintf("chip %s: P-state %d outside table of %d", c.cfg.Name, idx, len(table)))
	}
	p := table[idx]
	c.SetManual(p.Volt, p.Freq)
}

// SetCoreState transitions a core between Gated and IdleOn. Cores with
// threads are Active and cannot be gated; that is a scheduler bug.
func (c *Chip) SetCoreState(i int, s power.CoreState) {
	co := c.cores[i]
	if len(co.threads) > 0 && s != power.Active {
		panic(fmt.Sprintf("chip %s: cannot set core %d to %v with %d threads placed",
			c.cfg.Name, i, s, len(co.threads)))
	}
	if s == power.Active && len(co.threads) == 0 {
		panic(fmt.Sprintf("chip %s: core %d cannot be Active without threads", c.cfg.Name, i))
	}
	c.markDirty()
	co.state = s
}

// Place assigns threads to core i, activating it. Placing onto a gated core
// implicitly wakes it (the OS would ungate before dispatch).
func (c *Chip) Place(i int, threads ...*workload.Thread) {
	c.markDirty()
	co := c.cores[i]
	co.threads = append(co.threads, threads...)
	if len(co.threads) > 0 {
		co.state = power.Active
	}
}

// ClearCore removes all threads from core i, returning it to IdleOn.
func (c *Chip) ClearCore(i int) {
	c.markDirty()
	co := c.cores[i]
	co.threads = co.threads[:0]
	if co.state == power.Active {
		co.state = power.IdleOn
	}
}

// SetMemFactor sets the memory-contention multiplier for core i's threads.
// The server re-applies factors every step, so only a changed value counts
// as a perturbation for the multi-rate stepping engine.
func (c *Chip) SetMemFactor(i int, f float64) {
	if f < 1 {
		f = 1
	}
	if c.cores[i].memFactor != f {
		c.markDirty()
		c.cores[i].memFactor = f
	}
}

// SetIssueThrottle constrains core i's issue rate to the given fraction.
func (c *Chip) SetIssueThrottle(i int, frac float64) {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("chip %s: issue throttle %v out of (0,1]", c.cfg.Name, frac))
	}
	c.markDirty()
	if c.rec != nil && frac != c.cores[i].issueThrottle {
		c.rec.Inc(c.src, obs.CThrottleChanges)
		c.rec.Emit(obs.Event{TimeUS: obs.StampUS(c.timeSec), Kind: obs.KindThrottle,
			Source: c.src, Core: int32(i), A: frac, B: c.cores[i].issueThrottle})
	}
	c.cores[i].issueThrottle = frac
}

// AgeBy adds wear to the circuit: every path now needs mv more supply to
// meet timing. Negative values are rejected — transistors do not un-age.
func (c *Chip) AgeBy(mv float64) {
	if mv < 0 {
		panic(fmt.Sprintf("chip %s: negative aging %v", c.cfg.Name, mv))
	}
	c.markDirty()
	c.agingMV += mv
}

// AgingMV returns the accumulated wear.
func (c *Chip) AgingMV() float64 { return c.agingMV }

// MarginViolations returns the count of core-steps with negative effective
// timing margin.
func (c *Chip) MarginViolations() int { return c.marginViolations }

// SetDroopSlewAuthority overrides every DPLL's fast-slew droop-reaction
// authority (fraction of frequency sheddable in-flight). Ablation use only;
// pass 0 to restore the hardware default.
func (c *Chip) SetDroopSlewAuthority(frac float64) {
	c.markDirty()
	for _, co := range c.cores {
		co.dpll.FastSlewFracOverride = frac
	}
}

// ActiveCores returns the number of cores currently running threads.
func (c *Chip) ActiveCores() int {
	n := 0
	for _, co := range c.cores {
		if co.state == power.Active {
			n++
		}
	}
	return n
}

// AllDone reports whether every placed thread has retired its work.
func (c *Chip) AllDone() bool {
	for _, co := range c.cores {
		for _, th := range co.threads {
			if !th.Done() {
				return false
			}
		}
	}
	return true
}

// Time returns the simulated seconds elapsed.
func (c *Chip) Time() float64 { return c.timeSec }

// EnergyJ returns the accumulated chip energy in joules since the last
// ResetEnergy.
func (c *Chip) EnergyJ() float64 { return c.energyJ }

// ResetEnergy clears the energy accumulator.
func (c *Chip) ResetEnergy() { c.energyJ = 0 }
