// AGS orchestrator: the composed scheduler end to end. One critical
// WebSearch instance and a stream of batch jobs share a two-socket server;
// the orchestrator places batch work under loadline borrowing, rebalances
// at runtime, and watches the critical app's windowed tail latency with the
// Fig. 18 loop. Every decision lands in the event log.
//
//	go run ./examples/ags_orchestrator
package main

import (
	"fmt"

	"agsim/internal/chip"
	"agsim/internal/core"
	"agsim/internal/firmware"
	"agsim/internal/qos"
	"agsim/internal/server"
	"agsim/internal/units"
	"agsim/internal/workload"
)

// trainPredictor profiles the platform across load levels — the one-time
// setup a datacenter operator amortizes across the fleet.
func trainPredictor() *core.FreqPredictor {
	p := &core.FreqPredictor{}
	for _, n := range []int{1, 3, 5, 8} {
		for _, bench := range []string{"mcf", "dealII", "lu_cb"} {
			c := chip.MustNew(chip.DefaultConfig("profile", 9))
			d := workload.MustGet(bench)
			for i := 0; i < n; i++ {
				c.Place(i, workload.NewThread(d, 1e9, nil))
			}
			c.SetMode(firmware.Overclock)
			c.Settle(2)
			var mips, freq float64
			for i := 0; i < 300; i++ {
				c.Step(chip.DefaultStepSec)
				mips += float64(c.TotalMIPS())
				freq += float64(c.CoreFreq(0))
			}
			p.Observe(units.MIPS(mips/300), units.Megahertz(freq/300))
		}
	}
	if err := p.Train(); err != nil {
		panic(err)
	}
	return p
}

func main() {
	srv := server.MustNew(server.DefaultConfig(2026))
	srv.SetMode(firmware.Undervolt)

	predictor := trainPredictor()
	rel, _ := predictor.RelRMSE()
	fmt.Printf("frequency predictor trained: relative RMSE %.2f%%\n\n", rel*100)

	ags, err := core.NewAGS(srv, core.AGSConfig{OnCoresTotal: 16, Predictor: predictor})
	if err != nil {
		panic(err)
	}

	qcfg := qos.DefaultConfig()
	if _, err := ags.SubmitCritical("websearch", workload.MustGet("websearch"), core.AppSpec{
		Name: "websearch", Critical: true, QoSTarget: qcfg.TargetP90Sec,
	}, qcfg, 2026); err != nil {
		panic(err)
	}
	for i, batch := range []struct {
		bench   string
		threads int
	}{
		{"dealII", 4}, {"lu_cb", 6}, {"radiosity", 5},
	} {
		if _, err := ags.SubmitBatch(fmt.Sprintf("batch-%d", i), workload.MustGet(batch.bench), batch.threads, 1e9); err != nil {
			panic(err)
		}
	}

	// Run four simulated minutes; print QoS reports as they land. (The
	// mapper needs a full evidence window before it acts.)
	srv.Settle(2)
	for i := 0; i < 260000; i++ {
		for _, rep := range ags.Step(chip.DefaultStepSec) {
			status := "ok"
			if rep.Violated {
				status = "VIOLATED"
			}
			fmt.Printf("qos %-10s p90 %.3fs (%s, rate %.0f%%)\n",
				rep.ID, rep.P90Sec, status, rep.ViolationRate*100)
			if rep.Alert != "" {
				fmt.Printf("  -> scheduler advice: %s\n", rep.Alert)
			}
		}
	}

	fmt.Printf("\nscheduler event log (%d events total):\n%s", ags.Events().Total(), ags.Events().Dump())
	fmt.Printf("socket load: %d / %d active cores; migrations: %d\n",
		srv.Chip(0).ActiveCores(), srv.Chip(1).ActiveCores(), ags.Rebalancer().Migrations())
}
