package experiments

import (
	"fmt"

	"agsim/internal/firmware"
	"agsim/internal/parallel"
	"agsim/internal/stats"
	"agsim/internal/trace"
	"agsim/internal/workload"
)

// Fig14Result reproduces Fig. 14: per-benchmark power and energy under
// loadline borrowing versus the consolidation baseline with eight active
// cores, across PARSEC, SPLASH-2 and SPECrate.
type Fig14Result struct {
	// Table rows follow the paper's x-axis order; columns are baseline
	// watts, borrowing watts, power improvement percent, and energy
	// improvement percent ((E_base - E_borrow) / E_borrow, the paper's
	// right axis).
	Table *trace.Table

	// AvgPowerImprovement, AvgEnergyImprovement: means across the suite
	// (paper: 6.2% and 7.7%).
	AvgPowerImprovement, AvgEnergyImprovement float64
	// LuCbPowerImprovement: the power-intensive showcase (paper: 12.7%).
	LuCbPowerImprovement float64
	// WorstEnergy is the most-regressed benchmark's energy improvement
	// (paper: lu_ncb/radiosity lose >20% performance and regress).
	WorstEnergy float64
	// BestEnergy is the largest energy improvement (paper: up to ~171%
	// for the bandwidth-starved group).
	BestEnergy float64
}

// Fig14FullSuite runs the Fig. 14 experiment: run-to-completion under both
// schedules with all eight threads active.
func Fig14FullSuite(o Options) Fig14Result {
	res := Fig14Result{
		Table: trace.NewTable("Fig. 14: loadline borrowing at eight active cores",
			"baseline W", "borrowing W", "power imp %", "energy imp %"),
	}

	workloads := workload.Fig14Workloads()
	if o.Quick {
		workloads = []workload.Descriptor{
			workload.MustGet("lu_ncb"), workload.MustGet("raytrace"),
			workload.MustGet("lu_cb"), workload.MustGet("radix"),
		}
	}

	const n = 8
	var powerImps, energyImps []float64
	res.WorstEnergy, res.BestEnergy = 1e9, -1e9
	type point struct{ base, borr runResult }
	pts := parallel.Sweep(o.pool(), workloads, func(_ int, d workload.Descriptor) point {
		return point{
			base: serverRun(o, fmt.Sprintf("fig14/base/%s", d.Name), d, n, false, firmware.Undervolt),
			borr: serverRun(o, fmt.Sprintf("fig14/borr/%s", d.Name), d, n, true, firmware.Undervolt),
		}
	})
	for i, d := range workloads {
		base, borr := pts[i].base, pts[i].borr

		powerImp := improvementPct(base.AvgPowerW, borr.AvgPowerW)
		energyImp := (base.EnergyJ - borr.EnergyJ) / borr.EnergyJ * 100
		res.Table.AddRow(d.Name, base.AvgPowerW, borr.AvgPowerW, powerImp, energyImp)
		powerImps = append(powerImps, powerImp)
		energyImps = append(energyImps, energyImp)
		if d.Name == "lu_cb" {
			res.LuCbPowerImprovement = powerImp
		}
		if energyImp < res.WorstEnergy {
			res.WorstEnergy = energyImp
		}
		if energyImp > res.BestEnergy {
			res.BestEnergy = energyImp
		}
	}
	res.AvgPowerImprovement = stats.Mean(powerImps)
	res.AvgEnergyImprovement = stats.Mean(energyImps)
	return res
}
