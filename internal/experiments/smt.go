package experiments

import (
	"fmt"

	"agsim/internal/firmware"
	"agsim/internal/parallel"
	"agsim/internal/trace"
	"agsim/internal/workload"
)

// SMTResult examines the 4-way simultaneous multithreading dimension the
// paper's Fig. 14 setup exercises ("we use 32 PARSEC and SPLASH-2 threads
// ... to match POWER7+'s eight-core architecture"): how does filling the
// SMT slots change throughput, power, and the guardband economics?
type SMTResult struct {
	// Table rows per thread count {8, 16, 32}: chip MIPS, chip watts,
	// undervolt mV, and MIPS per watt.
	Table *trace.Table

	// ThroughputGainSMT4 is total-MIPS gain of 32 threads over 8 (the
	// SMT yield; sub-linear by construction).
	ThroughputGainSMT4 float64
	// EfficiencyGainSMT4 is the MIPS/W gain of 32 threads over 8: SMT
	// amortizes the chip's fixed power over more work.
	EfficiencyGainSMT4 float64
	// UndervoltCostSMT4 is how much undervolt depth SMT4 costs (mV):
	// busier pipelines draw more current.
	UndervoltCostSMT4 float64
}

// SMTScaling runs the SMT sweep with raytrace in undervolting mode.
func SMTScaling(o Options) SMTResult {
	res := SMTResult{
		Table: trace.NewTable("Extension: SMT scaling (raytrace, undervolt mode)",
			"MIPS", "W", "undervolt mV", "MIPS/W"),
	}
	d := workload.MustGet("raytrace")
	counts := []int{8, 16, 32}
	if o.Quick {
		counts = []int{8, 32}
	}
	sts := parallel.Sweep(o.pool(), counts, func(_ int, threads int) steady {
		tag := fmt.Sprintf("smt/%d", threads)
		c := newChip(o, tag)
		perCore := threads / 8
		for core := 0; core < 8; core++ {
			for k := 0; k < perCore; k++ {
				c.Place(core, workload.NewThread(d, 1e9, nil))
			}
		}
		c.SetMode(firmware.Undervolt)
		st := measureChip(o, c)
		releaseChip(c)
		return st
	})
	byCount := map[int]steady{}
	for i, threads := range counts {
		st := sts[i]
		byCount[threads] = st
		res.Table.AddRow(fmt.Sprintf("%d threads", threads),
			st.TotalMIPS, st.PowerW, st.UndervoltMV, st.TotalMIPS/st.PowerW)
	}
	base, smt4 := byCount[8], byCount[32]
	if base.TotalMIPS > 0 && base.PowerW > 0 {
		res.ThroughputGainSMT4 = (smt4.TotalMIPS/base.TotalMIPS - 1) * 100
		res.EfficiencyGainSMT4 = ((smt4.TotalMIPS/smt4.PowerW)/(base.TotalMIPS/base.PowerW) - 1) * 100
	}
	res.UndervoltCostSMT4 = base.UndervoltMV - smt4.UndervoltMV
	return res
}
