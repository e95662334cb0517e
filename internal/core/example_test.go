package core_test

import (
	"fmt"

	"agsim/internal/core"
	"agsim/internal/server"
	"agsim/internal/units"
	"agsim/internal/workload"
)

// ExampleFreqPredictor shows the Fig. 16 workflow: profile chip operating
// points, fit the linear model, and predict the frequency of a hypothetical
// colocation.
func ExampleFreqPredictor() {
	var p core.FreqPredictor
	// Profiled (chip MIPS, settled frequency) pairs.
	for _, obs := range [][2]float64{
		{10000, 4575}, {25000, 4537}, {40000, 4500},
		{55000, 4462}, {70000, 4425},
	} {
		p.Observe(units.MIPS(obs[0]), units.Megahertz(obs[1]))
	}
	if err := p.Train(); err != nil {
		panic(err)
	}
	f, _ := p.Predict(48000)
	fmt.Printf("predicted frequency at 48k MIPS: %.0f MHz\n", float64(f))
	// Output:
	// predicted frequency at 48k MIPS: 4480 MHz
}

// ExampleShouldBorrow shows the loadline-borrowing gate feeding the
// server's placement rule: five raytrace threads spread across the
// sockets, while five threads of sharing-heavy lu_ncb stay together.
// With eight cores kept powered, the spread job's sockets get four each.
func ExampleShouldBorrow() {
	for _, name := range []string{"raytrace", "lu_ncb"} {
		d := workload.MustGet(name)
		srv := server.MustNew(server.DefaultConfig(1))
		ps, _ := server.PlaceOnFree(srv.FreeCores(nil), 5, !core.ShouldBorrow(d))
		srv.MustSubmit("job", d, ps, 1e9)
		srv.GateUnloadedCores(8, !core.ShouldBorrow(d))
		fmt.Printf("%s: borrow %v, placements %v, loaded %d+%d\n", name, core.ShouldBorrow(d), ps,
			srv.Chip(0).ActiveCores(), srv.Chip(1).ActiveCores())
	}
	// Output:
	// raytrace: borrow true, placements [{0 0} {1 0} {0 1} {1 1} {0 2}], loaded 3+2
	// lu_ncb: borrow false, placements [{0 0} {0 1} {0 2} {0 3} {0 4}], loaded 5+0
}
