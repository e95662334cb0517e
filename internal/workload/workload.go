// Package workload models the benchmarks the paper runs on the POWER7+
// server: PARSEC, SPLASH-2, SPEC CPU2006 (as SPECrate copies), coremark,
// and the WebSearch datacenter application.
//
// The real benchmarks cannot run here (no POWER hardware, no proprietary
// traces), so each is replaced by a descriptor of the properties that drive
// every effect the paper studies: instruction throughput, switching
// activity (dynamic power), memory-boundedness, parallel scaling,
// cross-socket data sharing, and di/dt noise character. The registry in
// registry.go pins each descriptor to the per-workload facts the paper
// reports (e.g. radix is low-power and memory-bound so its guardband benefit
// survives core scaling; swaptions is compute-intense so its benefit
// collapses from 13% to 3%).
package workload

import (
	"fmt"
	"sort"

	"agsim/internal/units"
)

// Suite identifies the benchmark suite a workload belongs to.
type Suite int

// Suites used in the paper's evaluation.
const (
	PARSEC Suite = iota
	SPLASH2
	SPECCPU
	Micro      // coremark
	Datacenter // WebSearch
)

// String returns the conventional suite name.
func (s Suite) String() string {
	switch s {
	case PARSEC:
		return "PARSEC"
	case SPLASH2:
		return "SPLASH-2"
	case SPECCPU:
		return "SPEC CPU2006"
	case Micro:
		return "micro"
	case Datacenter:
		return "datacenter"
	default:
		return fmt.Sprintf("Suite(%d)", int(s))
	}
}

// Descriptor captures the architecture-visible behaviour of one benchmark.
// All rate-like fields are per thread unless stated otherwise.
type Descriptor struct {
	Name  string
	Suite Suite

	// IPC is the core instructions-per-cycle achieved while the thread is
	// not stalled on memory, at one thread per core.
	IPC float64

	// MemNsPerInst is the average memory-stall time per instruction in
	// nanoseconds under uncontended memory bandwidth. Memory stalls do not
	// shrink when frequency rises, which is what makes memory-bound
	// workloads insensitive to overclocking.
	MemNsPerInst float64

	// BytesPerInst is the average off-chip traffic per instruction, used by
	// the server's per-socket bandwidth contention model.
	BytesPerInst float64

	// Activity is the switching-activity factor in (0,1] applied to the
	// core's effective capacitance while the pipeline is busy. It is the
	// main knob separating power-hungry workloads (lu_cb, swaptions) from
	// quiet ones (mcf, radix).
	Activity float64

	// ParallelOverhead is the Amdahl-style per-extra-thread overhead sigma:
	// efficiency(n) = 1 / (1 + sigma*(n-1)). Zero means perfect scaling.
	ParallelOverhead float64

	// Sharing in [0,1] scales the extra memory latency threads pay when the
	// workload is split across sockets (coherence and data movement over
	// the inter-chip links). High for lu_ncb and radiosity, which the paper
	// reports losing >20% performance under loadline borrowing.
	Sharing float64

	// DidtTypicalMV is the single-core typical-case di/dt ripple amplitude
	// in millivolts of equivalent on-chip drop.
	DidtTypicalMV float64

	// DidtWorstMV is the single-core worst-case droop magnitude in
	// millivolts, before the multi-core alignment factor.
	DidtWorstMV float64

	// DroopRatePerSec is the expected rate of worst-case alignment events
	// per second at full chip load.
	DroopRatePerSec float64

	// WorkGInst is the total single-threaded work of one run in
	// giga-instructions; run-to-completion experiments split it across the
	// active threads.
	WorkGInst float64
}

// Validate reports the first physically meaningless field, or nil. Registry
// construction validates every entry so a bad calibration fails at init.
func (d *Descriptor) Validate() error {
	switch {
	case d.Name == "":
		return fmt.Errorf("workload: descriptor with empty name")
	case d.IPC <= 0 || d.IPC > 8:
		return fmt.Errorf("workload %s: IPC %v out of range (0,8]", d.Name, d.IPC)
	case d.MemNsPerInst < 0:
		return fmt.Errorf("workload %s: negative MemNsPerInst", d.Name)
	case d.BytesPerInst < 0:
		return fmt.Errorf("workload %s: negative BytesPerInst", d.Name)
	case d.Activity <= 0 || d.Activity > 1:
		return fmt.Errorf("workload %s: Activity %v out of range (0,1]", d.Name, d.Activity)
	case d.ParallelOverhead < 0:
		return fmt.Errorf("workload %s: negative ParallelOverhead", d.Name)
	case d.Sharing < 0 || d.Sharing > 1:
		return fmt.Errorf("workload %s: Sharing %v out of range [0,1]", d.Name, d.Sharing)
	case d.DidtTypicalMV < 0 || d.DidtWorstMV < 0 || d.DroopRatePerSec < 0:
		return fmt.Errorf("workload %s: negative di/dt parameter", d.Name)
	case d.WorkGInst <= 0:
		return fmt.Errorf("workload %s: non-positive WorkGInst", d.Name)
	}
	return nil
}

// TimeNsPerInst returns the average wall time per instruction in
// nanoseconds at core frequency f, with memFactor (>= 1) inflating the
// memory-stall component to model bandwidth contention or cross-socket
// sharing, and smtThreads (>= 1) threads sharing the core.
//
// The two-term form — core cycles that scale with frequency plus memory
// nanoseconds that do not — is what produces the paper's observation that
// overclocking speeds up compute-bound workloads nearly linearly but
// memory-bound ones barely at all.
func (d *Descriptor) TimeNsPerInst(f units.Megahertz, memFactor, smtThreads float64) float64 {
	if f <= 0 {
		panic(fmt.Sprintf("workload %s: TimeNsPerInst at non-positive frequency %v", d.Name, f))
	}
	if memFactor < 1 {
		memFactor = 1
	}
	if smtThreads < 1 {
		smtThreads = 1
	}
	cycleNs := 1000 / float64(f)
	coreNs := cycleNs / d.effectiveIPC(smtThreads)
	return coreNs + d.MemNsPerInst*memFactor
}

// effectiveIPC returns the per-thread IPC when smtThreads share the core.
// SMT raises total core throughput sub-linearly (the POWER7+ is 4-way SMT);
// the yield curve is a standard diminishing-returns model.
func (d *Descriptor) effectiveIPC(smtThreads float64) float64 {
	if smtThreads <= 1 {
		return d.IPC
	}
	// Total core IPC grows as 1 + 0.35*(t-1) up to 4 threads, then divides
	// among the threads.
	total := d.IPC * (1 + 0.35*(min(smtThreads, 4)-1))
	return total / smtThreads
}

// MIPSPerThread returns the throughput of one thread under the given
// conditions.
func (d *Descriptor) MIPSPerThread(f units.Megahertz, memFactor, smtThreads float64) units.MIPS {
	return units.MIPS(1000 / d.TimeNsPerInst(f, memFactor, smtThreads))
}

// Utilization returns the fraction of wall time the thread keeps the core
// pipeline switching (as opposed to stalled on memory) under the given
// conditions. Dynamic power scales with this, which is how memory-bound
// workloads end up low-power.
func (d *Descriptor) Utilization(f units.Megahertz, memFactor, smtThreads float64) float64 {
	total := d.TimeNsPerInst(f, memFactor, smtThreads)
	mem := d.MemNsPerInst * max(memFactor, 1)
	return (total - mem) / total
}

// MemBoundFraction is the fraction of time stalled on memory at nominal
// conditions; it is 1 - Utilization at memFactor 1 and one thread.
func (d *Descriptor) MemBoundFraction(f units.Megahertz) float64 {
	return 1 - d.Utilization(f, 1, 1)
}

// BandwidthGBs returns the off-chip bandwidth demand of a thread running at
// the given throughput.
func (d *Descriptor) BandwidthGBs(mips units.MIPS) float64 {
	return float64(mips) * 1e6 * d.BytesPerInst / 1e9
}

// ParallelEfficiency returns the per-thread efficiency when n threads
// cooperate on the same (fixed-size) problem.
func (d *Descriptor) ParallelEfficiency(n int) float64 {
	if n <= 1 {
		return 1
	}
	return 1 / (1 + d.ParallelOverhead*float64(n-1))
}

// SpeedupAt returns the whole-program speedup of running the fixed problem
// with n threads relative to one thread, at equal per-thread throughput.
func (d *Descriptor) SpeedupAt(n int) float64 {
	return float64(n) * d.ParallelEfficiency(n)
}

// SortByName sorts descriptors by name in place, for deterministic
// iteration in experiments and reports.
func SortByName(ds []Descriptor) {
	sort.Slice(ds, func(i, j int) bool { return ds[i].Name < ds[j].Name })
}
