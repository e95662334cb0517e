// Loadline borrowing: compare the conventional consolidation schedule with
// the paper's loadline-borrowing schedule on the two-socket server, for a
// compute-heavy and a bandwidth-heavy workload.
//
//	go run ./examples/loadline_borrowing
package main

import (
	"fmt"

	"agsim/internal/core"
	"agsim/internal/firmware"
	"agsim/internal/server"
	"agsim/internal/workload"
)

// run executes the whole benchmark under one schedule and returns average
// power and total energy.
func run(d workload.Descriptor, borrowed bool) (powerW, energyJ, seconds float64) {
	s := server.MustNew(server.DefaultConfig(11))
	// Consolidation keeps the job together on socket 0; borrowing spreads
	// it across the sockets. Either way eight cores stay powered.
	const threads, onCores = 8, 8
	placements, _ := server.PlaceOnFree(s.FreeCores(nil), threads, !borrowed)
	s.MustSubmit("job", d, placements, d.WorkGInst*0.2)
	s.GateUnloadedCores(onCores, !borrowed)
	s.SetMode(firmware.Undervolt)
	s.ResetEnergy()
	elapsed, done := s.RunUntilDone(600)
	if !done {
		panic("benchmark did not finish")
	}
	return s.TotalEnergyJ() / elapsed, s.TotalEnergyJ(), elapsed
}

func main() {
	for _, name := range []string{"raytrace", "radix", "lu_ncb"} {
		d := workload.MustGet(name)
		pc, ec, tc := run(d, false)
		pb, eb, tb := run(d, true)
		fmt.Printf("%s:\n", name)
		fmt.Printf("  consolidated:  %6.1f W, %7.0f J, %5.1f s\n", pc, ec, tc)
		fmt.Printf("  borrowed:      %6.1f W, %7.0f J, %5.1f s\n", pb, eb, tb)
		fmt.Printf("  power %+.1f%%, energy %+.1f%%, AGS policy says borrow: %v\n\n",
			(pc-pb)/pc*100, (ec-eb)/eb*100, core.ShouldBorrow(d))
	}
	fmt.Println("raytrace shows the loadline mechanism (deeper undervolt on both")
	fmt.Println("sockets); radix additionally gains from relieved memory-bandwidth")
	fmt.Println("contention; lu_ncb regresses because its threads share data across")
	fmt.Println("the sockets — exactly the Fig. 14 spectrum, which is why the AGS")
	fmt.Println("policy keeps sharing-heavy jobs consolidated.")
}
