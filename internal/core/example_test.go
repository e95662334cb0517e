package core_test

import (
	"fmt"

	"agsim/internal/core"
	"agsim/internal/units"
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

// ExampleBorrowing shows the loadline-borrowing plan for five threads on a
// two-socket server keeping eight cores powered.
func ExampleBorrowing() {
	b, err := core.NewBorrowing(2, 8, 8)
	if err != nil {
		panic(err)
	}
	for _, p := range b.Plan(5) {
		fmt.Printf("P%d core %d\n", p.Socket, p.Core)
	}
	fmt.Println("keep idle-on per socket:", b.KeepOn(5))
	// Output:
	// P0 core 0
	// P1 core 0
	// P0 core 1
	// P1 core 1
	// P0 core 2
	// keep idle-on per socket: [2 1]
}
