// Package server models the paper's experimental platform: an IBM Power 720
// (7R2) class two-socket server. Each socket holds one POWER7+ chip fed by
// its own rail of a shared VRM chip (paper Fig. 11), with per-socket memory
// channels, per-core power gating, and a taskset-equivalent placement
// interface the schedulers drive.
//
// Beyond wiring two chips together, the server owns the two effects that
// make loadline borrowing non-trivial (paper §5.1.2 / Fig. 14):
//
//   - per-socket memory bandwidth contention: consolidating bandwidth-heavy
//     threads on one socket saturates its channels, and splitting them
//     across sockets relieves the contention (radix, lbm, fft win big);
//   - cross-socket sharing penalty: threads of a tightly sharing workload
//     placed on different sockets pay inter-chip communication latency
//     (lu_ncb and radiosity lose >20%).
package server

import (
	"fmt"
	"math"

	"agsim/internal/chip"
	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/power"
	"agsim/internal/rng"
	"agsim/internal/units"
	"agsim/internal/workload"
)

// Config assembles a server.
type Config struct {
	// Sockets is the processor count (2 for the Power 720).
	Sockets int
	// CoresPerSocket matches the POWER7+ (8).
	CoresPerSocket int

	// MemBWGBs is each socket's usable memory bandwidth. Demand beyond it
	// inflates every resident thread's memory stall time proportionally.
	MemBWGBs float64

	// ContentionExponent controls how superlinearly memory over-subscription
	// inflates latency; zero selects DefaultContentionExponent.
	ContentionExponent float64

	// SharingPenalty scales the extra memory latency a split job pays:
	// memory time multiplies by (1 + SharingPenalty*job.Sharing) on every
	// thread of a job whose threads span sockets.
	SharingPenalty float64

	// ChipConfig templates the per-socket chips; Name and Seed are
	// overridden per socket.
	ChipConfig chip.Config

	// Recorder, when non-nil, is the flight recorder handed to every
	// chip; each socket registers its own source ("P0", "P1") in it.
	Recorder *obs.Recorder

	Seed uint64
}

// DefaultConfig returns the calibrated Power 720 configuration.
func DefaultConfig(seed uint64) Config {
	return Config{
		Sockets:        2,
		CoresPerSocket: 8,
		MemBWGBs:       26,
		SharingPenalty: 1.5,
		ChipConfig:     chip.DefaultConfig("", 0),
		Seed:           seed,
	}
}

// Placement locates one thread on the server.
type Placement struct {
	Socket, Core int
}

// Job is one submitted workload: its descriptor, threads, and where each
// thread lives.
type Job struct {
	ID         string
	Desc       workload.Descriptor
	Threads    []*workload.Thread
	Placements []Placement

	// spansSockets caches whether the placements touch more than one
	// socket. Submit and Migrate maintain it so the per-step sharing-factor
	// path never re-derives it through the allocating Sockets call — that
	// one map-and-slice per core per step used to dominate the sweep
	// allocation profile.
	spansSockets bool
}

// Done reports whether all of the job's threads have retired their work.
func (j *Job) Done() bool {
	for _, th := range j.Threads {
		if !th.Done() {
			return false
		}
	}
	return true
}

// Sockets returns the distinct sockets the job's threads occupy.
func (j *Job) Sockets() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range j.Placements {
		if !seen[p.Socket] {
			seen[p.Socket] = true
			out = append(out, p.Socket)
		}
	}
	return out
}

// split reports whether the job spans more than one socket.
func (j *Job) split() bool { return j.spansSockets }

// spanSockets reports whether a non-empty placement list touches more
// than one socket.
func spanSockets(ps []Placement) bool {
	for _, p := range ps[1:] {
		if p.Socket != ps[0].Socket {
			return true
		}
	}
	return false
}

// Server is the assembled two-socket machine.
type Server struct {
	cfg Config
	// shapeKey caches cfg.ShapeKey(): the shape fields never change after
	// construction, and the pooled path (server arena) looks the key up
	// on every acquire and release.
	shapeKey string
	chips    []*chip.Chip
	jobs     []*Job
	r        *rng.Source

	// coreJob maps (socket, core) to the job occupying it; the simulator
	// places at most one job per core (threads of one job may share a core
	// through SMT).
	coreJob [][]*Job

	// freeThreads holds threads harvested by Reset for reuse: Submit pops
	// one and Reinits it instead of allocating, drawing the same RNG
	// sequence a fresh NewThread-with-Split would.
	freeThreads []*workload.Thread

	timeSec float64
}

// New builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.Sockets < 1 {
		return nil, fmt.Errorf("server: need at least one socket")
	}
	if cfg.MemBWGBs <= 0 {
		return nil, fmt.Errorf("server: non-positive memory bandwidth %v", cfg.MemBWGBs)
	}
	if cfg.SharingPenalty < 0 {
		return nil, fmt.Errorf("server: negative sharing penalty %v", cfg.SharingPenalty)
	}
	s := &Server{cfg: cfg, shapeKey: cfg.ShapeKey(), r: rng.New(cfg.Seed, "server")}
	for i := 0; i < cfg.Sockets; i++ {
		cc := cfg.ChipConfig
		cc.Name = fmt.Sprintf("P%d", i)
		cc.Cores = cfg.CoresPerSocket
		cc.PDN.Cores = cfg.CoresPerSocket
		cc.Seed = cfg.Seed + uint64(i)*7919
		cc.Recorder = cfg.Recorder
		ch, err := chip.New(cc)
		if err != nil {
			return nil, err
		}
		s.chips = append(s.chips, ch)
		s.coreJob = append(s.coreJob, make([]*Job, cfg.CoresPerSocket))
	}
	return s, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Reset rewinds the server to the state New would produce for the same
// configuration shape with the given seed and recorder, without
// reallocating chips or threads: the server stream is reseeded in place,
// each chip Resets under its original name with the per-socket seed
// derivation New uses, and every live job's threads are harvested into the
// freelist Submit recycles. Pooled and fresh servers then run
// bit-identically.
func (s *Server) Reset(seed uint64, rec *obs.Recorder) {
	s.cfg.Seed = seed
	s.cfg.Recorder = rec
	s.cfg.ChipConfig.Recorder = rec
	s.r.Reseed(seed, "server")
	for i, c := range s.chips {
		c.Reset(c.Name(), seed+uint64(i)*7919, rec)
		cores := s.coreJob[i]
		for core := range cores {
			cores[core] = nil
		}
	}
	for _, j := range s.jobs {
		s.freeThreads = append(s.freeThreads, j.Threads...)
	}
	s.jobs = s.jobs[:0]
	s.timeSec = 0
}

// ShapeKey identifies the allocation shape of the configuration — every
// field except the per-point identity (Seed, Recorder) that Reset
// rewrites. Arenas pool servers under this key.
func (c Config) ShapeKey() string {
	c.Seed = 0
	c.Recorder = nil
	return fmt.Sprintf("server{%d %d %v %v %v %s}",
		c.Sockets, c.CoresPerSocket, c.MemBWGBs, c.ContentionExponent, c.SharingPenalty,
		c.ChipConfig.ShapeKey())
}

// ShapeKey returns the server's configuration shape key, so a releasing
// caller can return the server to the pool it was acquired from. The key
// is cached at construction — pooled paths consult it per acquire and
// release, and re-deriving it formats the whole configuration tree.
func (s *Server) ShapeKey() string { return s.shapeKey }

// Sockets returns the socket count.
func (s *Server) Sockets() int { return len(s.chips) }

// Chip returns the processor in socket i.
func (s *Server) Chip(i int) *chip.Chip { return s.chips[i] }

// Jobs returns the live jobs.
func (s *Server) Jobs() []*Job { return s.jobs }

// SetMode places every chip in the given guardband mode.
func (s *Server) SetMode(m firmware.Mode) {
	for _, c := range s.chips {
		c.SetMode(m)
	}
}

// Submit creates a job running the descriptor with one thread per
// placement. Work is the whole-job amount; it is divided across threads
// with the workload's parallel-efficiency adjustment. A nil or zero
// placement list is a caller bug.
func (s *Server) Submit(id string, d workload.Descriptor, placements []Placement, workGInst float64) (*Job, error) {
	if len(placements) == 0 {
		return nil, fmt.Errorf("server: job %s has no placements", id)
	}
	if workGInst <= 0 {
		return nil, fmt.Errorf("server: job %s has non-positive work", id)
	}
	n := len(placements)
	perThread := workGInst / (float64(n) * d.ParallelEfficiency(n))
	j := &Job{ID: id, Desc: d, Placements: placements, spansSockets: spanSockets(placements)}
	for i, p := range placements {
		if p.Socket < 0 || p.Socket >= len(s.chips) {
			return nil, fmt.Errorf("server: job %s placement %d names socket %d of %d", id, i, p.Socket, len(s.chips))
		}
		if p.Core < 0 || p.Core >= s.cfg.CoresPerSocket {
			return nil, fmt.Errorf("server: job %s placement %d names core %d of %d", id, i, p.Core, s.cfg.CoresPerSocket)
		}
		if other := s.coreJob[p.Socket][p.Core]; other != nil && other != j {
			return nil, fmt.Errorf("server: job %s placement %d collides with job %s on P%d core %d",
				id, i, other.ID, p.Socket, p.Core)
		}
		name := fmt.Sprintf("job/%s/%d", id, i)
		var th *workload.Thread
		if k := len(s.freeThreads) - 1; k >= 0 {
			th = s.freeThreads[k]
			s.freeThreads[k] = nil
			s.freeThreads = s.freeThreads[:k]
			th.Reinit(d, perThread, s.r, name)
		} else {
			th = workload.NewThread(d, perThread, s.r.Split(name))
		}
		j.Threads = append(j.Threads, th)
		s.chips[p.Socket].Place(p.Core, th)
		s.coreJob[p.Socket][p.Core] = j
	}
	s.jobs = append(s.jobs, j)
	return j, nil
}

// MustSubmit is Submit for statically correct placements.
func (s *Server) MustSubmit(id string, d workload.Descriptor, placements []Placement, workGInst float64) *Job {
	j, err := s.Submit(id, d, placements, workGInst)
	if err != nil {
		panic(err)
	}
	return j
}

// MigrationCostGInst is the work penalty each migrated thread pays for
// cache refill and state movement — the cost the Linux-taskset emulation of
// the paper's §5.1.2 incurs when it rebalances a running job.
const MigrationCostGInst = 0.02

// Migrate moves a running job to new placements, preserving each thread's
// progress and charging the migration cost to every thread whose core
// changes. The placement list must match the job's thread count; collisions
// with other jobs are rejected with the job left untouched.
func (s *Server) Migrate(j *Job, placements []Placement) error {
	if len(placements) != len(j.Threads) {
		return fmt.Errorf("server: job %s has %d threads, migration names %d placements",
			j.ID, len(j.Threads), len(placements))
	}
	for i, p := range placements {
		if p.Socket < 0 || p.Socket >= len(s.chips) || p.Core < 0 || p.Core >= s.cfg.CoresPerSocket {
			return fmt.Errorf("server: job %s migration placement %d out of range", j.ID, i)
		}
		if other := s.coreJob[p.Socket][p.Core]; other != nil && other != j {
			return fmt.Errorf("server: job %s migration collides with job %s on P%d core %d",
				j.ID, other.ID, p.Socket, p.Core)
		}
	}

	// Vacate the old cores, then place every thread at its new home.
	for _, p := range j.Placements {
		if s.coreJob[p.Socket][p.Core] == j {
			s.chips[p.Socket].ClearCore(p.Core)
			s.coreJob[p.Socket][p.Core] = nil
		}
	}
	for i, p := range placements {
		moved := j.Placements[i] != p
		if moved && !j.Threads[i].Done() {
			j.Threads[i].AddWork(MigrationCostGInst)
		}
		s.chips[p.Socket].Place(p.Core, j.Threads[i])
		s.coreJob[p.Socket][p.Core] = j
	}
	j.Placements = placements
	j.spansSockets = spanSockets(placements)
	return nil
}

// Remove evicts a job's threads from their cores.
func (s *Server) Remove(j *Job) {
	for _, p := range j.Placements {
		if s.coreJob[p.Socket][p.Core] == j {
			s.chips[p.Socket].ClearCore(p.Core)
			s.coreJob[p.Socket][p.Core] = nil
		}
	}
	for i, job := range s.jobs {
		if job == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			break
		}
	}
}

// GateUnloadedCores deep-sleeps every core that has no threads, the
// per-core power-gating half of loadline borrowing. keepOn[i] leaves that
// many unloaded cores on socket i merely idle (turned on for
// responsiveness, as the paper's 50%-utilization scenario keeps eight of
// sixteen cores on); sockets beyond the slice keep none.
func (s *Server) GateUnloadedCores(keepOn ...int) {
	for si, c := range s.chips {
		keep := 0
		if si < len(keepOn) {
			keep = keepOn[si]
		}
		kept := 0
		for core := 0; core < c.Cores(); core++ {
			if s.coreJob[si][core] != nil {
				continue
			}
			if kept < keep {
				c.SetCoreState(core, power.IdleOn)
				kept++
				continue
			}
			c.SetCoreState(core, power.Gated)
		}
	}
}

// UngateAll returns every gated core to idle.
func (s *Server) UngateAll() {
	for si, c := range s.chips {
		for core := 0; core < c.Cores(); core++ {
			if s.coreJob[si][core] == nil && c.Core(core).State() == power.Gated {
				c.SetCoreState(core, power.IdleOn)
			}
		}
	}
}

// Step advances the whole server by dtSec: it refreshes each core's memory
// factor from socket bandwidth pressure and job topology, then steps the
// chips.
func (s *Server) Step(dtSec float64) {
	s.applyMemFactors()
	for _, c := range s.chips {
		c.Step(dtSec)
	}
	s.timeSec += dtSec
}

// Horizon applies the memory factors for the upcoming segment and reports
// whether every chip is quiescent, and if so the server-wide event horizon
// (the minimum of the per-chip horizons, capped at maxSec). Applying
// factors first matters twice over: a factor change marks the chip dirty
// (so quiescent correctly reads false), and the thread-completion horizons
// are computed at the same MIPS a subsequent MacroStep will retire work at.
func (s *Server) Horizon(maxSec float64) (quiescent bool, horizonSec float64) {
	s.applyMemFactors()
	h := maxSec
	for _, c := range s.chips {
		if !c.Quiescent() {
			return false, 0
		}
		if ch := c.HorizonSec(maxSec); ch < h {
			h = ch
		}
	}
	return true, h
}

// MacroStep leaps every chip by h seconds. The caller must have bounded h
// with Horizon (which also applied the memory factors for this segment).
func (s *Server) MacroStep(h float64) {
	for _, c := range s.chips {
		c.MacroStep(h)
	}
	s.timeSec += h
}

// MicroStepSec returns the server's next micro-step duration. All chips
// advance in lockstep from time zero, so socket 0's grid re-sync fragment
// (see chip.MicroStepSec) applies server-wide.
func (s *Server) MicroStepSec() float64 {
	if len(s.chips) == 0 {
		return chip.DefaultStepSec
	}
	return s.chips[0].MicroStepSec()
}

// Advance moves the server forward by one segment — a synchronized
// macro-step to the earliest per-chip event horizon when every chip is
// quiescent, one grid-aligned micro-step otherwise — and returns the
// simulated seconds consumed. All chips always advance by the same dt, so
// cross-socket coupling (memory factors) stays synchronous.
func (s *Server) Advance(maxSec float64) float64 {
	micro := s.MicroStepSec()
	if maxSec < micro {
		s.Step(maxSec)
		return maxSec
	}
	quiescent, h := s.Horizon(maxSec)
	if !quiescent || h <= micro {
		// Factors are already applied for this segment; step the chips
		// directly rather than re-deriving them through Step.
		for _, c := range s.chips {
			c.Step(micro)
		}
		s.timeSec += micro
		return micro
	}
	s.MacroStep(h)
	return h
}

// DefaultContentionExponent makes over-subscription superlinear: queueing at the
// memory controllers inflates latency faster than the raw demand ratio once
// the channels saturate. The exponent is calibrated so the paper's Fig. 14
// right-edge workloads (radix, lbm, fft, GemsFDTD) roughly double their
// throughput when split across sockets.
const DefaultContentionExponent = 1.4

// applyMemFactors computes per-core memory-stall inflation from the
// *unconstrained* bandwidth demand of each socket's threads at their
// current frequency and writes each factor to the chip. Using analytic
// demand rather than last-step delivered throughput keeps the fluid model
// consistent: a saturated socket slows all resident threads so delivered
// bandwidth settles at the channel limit instead of feedback-washing the
// contention away.
func (s *Server) applyMemFactors() {
	for si, c := range s.chips {
		demand := 0.0
		for core := 0; core < c.Cores(); core++ {
			j := s.coreJob[si][core]
			if j == nil {
				continue
			}
			share := s.sharingFactor(j)
			smt := float64(len(c.Core(core).Threads()))
			mips := j.Desc.MIPSPerThread(c.CoreFreq(core), share, smt)
			demand += j.Desc.BandwidthGBs(mips) * smt
		}
		contention := 1.0
		if rho := demand / s.cfg.MemBWGBs; rho > 1 {
			contention = math.Pow(rho, s.contentionExp())
		}
		for core := 0; core < c.Cores(); core++ {
			factor := contention
			if j := s.coreJob[si][core]; j != nil {
				factor *= s.sharingFactor(j)
			}
			c.SetMemFactor(core, factor)
		}
	}
}

// sharingFactor returns the memory-latency multiplier a job pays for
// spanning sockets.
func (s *Server) sharingFactor(j *Job) float64 {
	if !j.split() {
		return 1
	}
	return 1 + s.cfg.SharingPenalty*j.Desc.Sharing
}

// SocketBandwidthDemand returns socket i's last-step bandwidth demand in
// GB/s, for telemetry.
func (s *Server) SocketBandwidthDemand(i int) float64 {
	demand := 0.0
	c := s.chips[i]
	for core := 0; core < c.Cores(); core++ {
		if j := s.coreJob[i][core]; j != nil {
			demand += j.Desc.BandwidthGBs(c.CoreMIPS(core))
		}
	}
	return demand
}

// TotalPower returns the last-step power of all chips — the "total chip
// power" of Figs. 12b and 14.
func (s *Server) TotalPower() units.Watt {
	var p units.Watt
	for _, c := range s.chips {
		p += c.ChipPower()
	}
	return p
}

// TotalEnergyJ sums the chips' energy accumulators.
func (s *Server) TotalEnergyJ() float64 {
	e := 0.0
	for _, c := range s.chips {
		e += c.EnergyJ()
	}
	return e
}

// ResetEnergy clears all chip energy accumulators.
func (s *Server) ResetEnergy() {
	for _, c := range s.chips {
		c.ResetEnergy()
	}
}

// AllDone reports whether every submitted job has finished.
func (s *Server) AllDone() bool {
	for _, j := range s.jobs {
		if !j.Done() {
			return false
		}
	}
	return true
}

// Time returns the simulated seconds elapsed.
func (s *Server) Time() float64 { return s.timeSec }

// settleEps mirrors chip.Settle's residue bound for span-covering loops.
const settleEps = 1e-9

// Settle advances the server for the given simulated seconds on the
// multi-rate path, stepping any fractional remainder explicitly.
func (s *Server) Settle(seconds float64) {
	for remaining := seconds; remaining > settleEps; {
		remaining -= s.Advance(remaining)
	}
}

// RunUntilDone advances until every job finishes or maxSeconds elapses,
// returning the seconds consumed and whether completion was reached.
// Thread completions are event horizons, so the multi-rate path lands on
// them at micro-step resolution.
func (s *Server) RunUntilDone(maxSeconds float64) (elapsed float64, done bool) {
	start := s.timeSec
	for !s.AllDone() {
		remaining := maxSeconds - (s.timeSec - start)
		if remaining <= 0 {
			return s.timeSec - start, false
		}
		s.Advance(remaining)
	}
	return s.timeSec - start, true
}

// ConsolidatedPlacements returns placements packing n threads onto socket 0
// cores 0..n-1 — the conventional consolidation schedule (Fig. 11a).
func ConsolidatedPlacements(n int) []Placement {
	ps := make([]Placement, n)
	for i := range ps {
		ps[i] = Placement{Socket: 0, Core: i}
	}
	return ps
}

// BorrowedPlacements returns placements balancing n threads across sockets
// round-robin — the loadline borrowing schedule (Fig. 11b).
func BorrowedPlacements(n, sockets int) []Placement {
	ps := make([]Placement, n)
	for i := range ps {
		ps[i] = Placement{Socket: i % sockets, Core: i / sockets}
	}
	return ps
}

// contentionExp returns the configured contention exponent, defaulting to
// DefaultContentionExponent when unset.
func (s *Server) contentionExp() float64 {
	if s.cfg.ContentionExponent > 0 {
		return s.cfg.ContentionExponent
	}
	return DefaultContentionExponent
}
