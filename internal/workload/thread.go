package workload

import (
	"fmt"
	"math"

	"agsim/internal/rng"
	"agsim/internal/units"
)

// Thread is one running software thread of a benchmark. It tracks remaining
// work for run-to-completion experiments and carries a slowly varying
// activity phase so chip power (and therefore passive drop) fluctuates the
// way real program phases do.
type Thread struct {
	Desc Descriptor

	remainingGInst float64
	retiredGInst   float64

	// phaseMul multiplies the descriptor's mean activity; it follows a
	// mean-reverting random walk in [1-phaseSwing, 1+phaseSwing].
	phaseMul float64
	r        *rng.Source

	// sinceWalk accumulates executed time toward the next phase-walk
	// update; the walk advances once per walkPeriodSec of thread time.
	sinceWalk float64
}

// phaseSwing bounds the activity excursion of program phases around the
// workload mean. Program phase behaviour in the paper shows up as the
// typical-case di/dt ripple; this slower component models multi-millisecond
// phases visible at the 32 ms telemetry interval.
const phaseSwing = 0.08

// NewThread creates a thread with the given share of the benchmark's work.
// r may be nil for a deterministic (phase-free) thread.
func NewThread(d Descriptor, workGInst float64, r *rng.Source) *Thread {
	t := new(Thread)
	t.rewind(d, workGInst, r)
	return t
}

// rewind sets the thread's whole state: the state NewThread(d,
// workGInst, r) produces, which Reinit also lands on.
func (t *Thread) rewind(d Descriptor, workGInst float64, r *rng.Source) {
	if !(workGInst > 0) {
		panic(fmt.Sprintf("workload %s: non-positive thread work %v", d.Name, workGInst))
	}
	*t = Thread{Desc: d, remainingGInst: workGInst, phaseMul: 1, r: r}
}

// Step advances the thread by dtSec of wall time at the given operating
// conditions, returning the instructions retired (in giga-instructions) and
// whether the thread finished within the step.
func (t *Thread) Step(dtSec float64, f units.Megahertz, memFactor, smtThreads float64) (retired float64, done bool) {
	if t.remainingGInst <= 0 {
		return 0, true
	}
	mips := float64(t.Desc.MIPSPerThread(f, memFactor, smtThreads))
	retired = mips * dtSec / 1000 // MIPS * s = 1e6 inst; /1000 -> GInst
	if retired >= t.remainingGInst {
		retired = t.remainingGInst
		t.remainingGInst = 0
		done = true
	} else {
		t.remainingGInst -= retired
	}
	t.retiredGInst += retired
	t.advancePhase(dtSec)
	return retired, done
}

// walkPeriodSec is the cadence of the stochastic phase walk. Updates land
// at fixed offsets of executed thread time — not once per Step — so the
// walk's trajectory (and RNG consumption) is identical whether the engine
// advances the thread in 1 ms micro-steps or one macro-step per firmware
// window. The period matches the telemetry window the walk models.
const walkPeriodSec = 0.032

func (t *Thread) advancePhase(dtSec float64) {
	if t.r == nil {
		return
	}
	// Ornstein-Uhlenbeck style mean reversion toward 1 with small noise;
	// the time constant (~50 ms) sits between the firmware tick and the
	// benchmark runtime. The noise scale keeps the walk's stationary
	// spread at ~10% of phaseSwing, the same envelope the per-millisecond
	// walk had, at the coarser update cadence.
	const tau = 0.05
	alpha := walkPeriodSec / tau
	sigma := phaseSwing * 0.1 * math.Sqrt(1-(1-alpha)*(1-alpha))
	t.sinceWalk += dtSec
	for t.sinceWalk+1e-12 >= walkPeriodSec {
		t.sinceWalk -= walkPeriodSec
		t.phaseMul += alpha * (1 - t.phaseMul)
		t.phaseMul += t.r.Normal(0, sigma)
		if t.phaseMul < 1-phaseSwing {
			t.phaseMul = 1 - phaseSwing
		}
		if t.phaseMul > 1+phaseSwing {
			t.phaseMul = 1 + phaseSwing
		}
	}
}

// Horizon queries for the multi-rate stepping engine. Both return
// *thread* seconds (the dtSec a Step call would consume); a caller that
// throttles thread time against wall time divides by its throttle factor.

// TimeToCompletion returns the thread seconds needed to retire the
// remaining work at the given (frozen) operating conditions, +Inf for a
// finished thread. It reads Step's rate, the descriptor's MIPSPerThread,
// so at constant conditions a Step of exactly this length completes the
// thread.
func (t *Thread) TimeToCompletion(f units.Megahertz, memFactor, smtThreads float64) float64 {
	if t.remainingGInst <= 0 {
		return math.Inf(1)
	}
	mips := float64(t.Desc.MIPSPerThread(f, memFactor, smtThreads))
	if mips <= 0 {
		return math.Inf(1)
	}
	return t.remainingGInst * 1000 / mips
}

// TimeToPhaseWalk returns the thread seconds until the next stochastic
// phase-walk update, +Inf for deterministic (phase-free) threads.
func (t *Thread) TimeToPhaseWalk() float64 {
	if t.r == nil {
		return math.Inf(1)
	}
	left := walkPeriodSec - t.sinceWalk
	if left < 0 {
		left = 0
	}
	return left
}

// ActivityNow returns the instantaneous switching-activity factor: the
// descriptor's mean activity scaled by the phase walk.
func (t *Thread) ActivityNow() float64 {
	a := t.Desc.Activity * t.phaseMul
	if a > 1 {
		a = 1
	}
	if a <= 0 {
		a = 0.01
	}
	return a
}

// AddWork appends extra work to the thread, e.g. the cache-refill and
// state-movement cost a migration charges.
func (t *Thread) AddWork(workGInst float64) {
	if !(workGInst >= 0) {
		panic(fmt.Sprintf("workload %s: negative or NaN added work %v", t.Desc.Name, workGInst))
	}
	t.remainingGInst += workGInst
}

// Reset restores the thread to a fresh state with the given remaining
// work. Measurement harnesses use it to settle a system under load and
// then start timing from a clean work budget.
func (t *Thread) Reset(workGInst float64) {
	if !(workGInst > 0) {
		panic(fmt.Sprintf("workload %s: non-positive reset work %v", t.Desc.Name, workGInst))
	}
	t.remainingGInst = workGInst
	t.retiredGInst = 0
}

// Reinit rewinds the thread to the state NewThread(d, workGInst, r')
// produces, where r' is a child stream split off parent under name (nil
// for a nil parent) — reusing the thread's retained Source in place when
// it has one, consuming exactly one parent draw like a fresh Split. The
// zero Thread is a valid receiver. Servers place every submitted thread
// through it, recycled or new, so a Submit on a pooled server draws the
// same RNG sequence, and produces the same thread state, as a Submit on a
// freshly built one.
func (t *Thread) Reinit(d Descriptor, workGInst float64, parent *rng.Source, name string) {
	var r *rng.Source
	if parent != nil {
		if r = t.r; r == nil {
			r = new(rng.Source)
		}
		parent.SplitInto(r, name)
	}
	t.rewind(d, workGInst, r)
}

// Done reports whether the thread has retired all of its work.
func (t *Thread) Done() bool { return t.remainingGInst <= 0 }

// Remaining returns the unretired work in giga-instructions.
func (t *Thread) Remaining() float64 { return t.remainingGInst }

// Retired returns the retired work in giga-instructions.
func (t *Thread) Retired() float64 { return t.retiredGInst }

// SplitWork divides a benchmark's total work across n threads, returning the
// per-thread share adjusted for the workload's parallel efficiency: lower
// efficiency means each thread executes extra (redundant or coordination)
// instructions, so the fixed problem takes longer than work/n.
func SplitWork(d Descriptor, n int) float64 {
	if n < 1 {
		panic(fmt.Sprintf("workload %s: SplitWork with n=%d", d.Name, n))
	}
	return d.WorkGInst / (float64(n) * d.ParallelEfficiency(n))
}
