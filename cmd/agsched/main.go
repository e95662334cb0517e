// Command agsched is a scheduling playground for the simulated Power 720:
// it places a workload under either the consolidation baseline or the
// loadline-borrowing schedule, runs it in a chosen guardband mode, and
// prints the server's sensors averaged over every step of the run.
//
// Usage:
//
//	agsched -workload raytrace -threads 8 -mode undervolt -borrow
//	agsched -workload radix -threads 8 -mode static -duration 5
//	agsched -list
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"agsim/internal/chip"
	"agsim/internal/core"
	"agsim/internal/firmware"
	"agsim/internal/server"
	"agsim/internal/workload"
)

func main() {
	name := flag.String("workload", "raytrace", "benchmark to run (see -list)")
	threads := flag.Int("threads", 8, "thread count (1-16)")
	mode := flag.String("mode", "undervolt", "guardband mode: static | undervolt | overclock")
	borrow := flag.Bool("borrow", false, "use the loadline-borrowing schedule instead of consolidation")
	rebalance := flag.Bool("rebalance", false, "run the dynamic rebalancer during the measurement")
	duration := flag.Float64("duration", 10, "simulated seconds to run")
	onCores := flag.Int("on-cores", 8, "cores kept powered across the server")
	seed := flag.Uint64("seed", 7, "simulation seed")
	list := flag.Bool("list", false, "list available workloads and exit")
	file := flag.String("workload-file", "", "JSON file of custom workload descriptors (see workload.SaveFile)")
	flag.Parse()

	if *list {
		for _, d := range workload.All() {
			fmt.Printf("%-16s %-12s IPC %.1f  mem %.0f%%  activity %.2f  sharing %.2f\n",
				d.Name, d.Suite, d.IPC, d.MemBoundFraction(4200)*100, d.Activity, d.Sharing)
		}
		return
	}

	d, err := workload.Get(*name)
	if *file != "" {
		custom, lerr := workload.LoadFile(*file)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "agsched:", lerr)
			os.Exit(1)
		}
		err = fmt.Errorf("workload %q not in file %s", *name, *file)
		for _, cd := range custom {
			if cd.Name == *name {
				d, err = cd, nil
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "agsched:", err)
		os.Exit(1)
	}
	var m firmware.Mode
	switch *mode {
	case "static":
		m = firmware.Static
	case "undervolt":
		m = firmware.Undervolt
	case "overclock":
		m = firmware.Overclock
	default:
		fmt.Fprintf(os.Stderr, "agsched: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	steps := int(math.Round(*duration / chip.DefaultStepSec))
	if steps < 1 {
		fmt.Fprintf(os.Stderr, "agsched: -duration %v is shorter than one %v s step\n", *duration, chip.DefaultStepSec)
		os.Exit(2)
	}

	s := server.MustNew(server.DefaultConfig(*seed))
	sched, err := core.NewBorrowing(s.Sockets(), 8, *onCores)
	if err != nil {
		fmt.Fprintln(os.Stderr, "agsched:", err)
		os.Exit(1)
	}

	if *borrow {
		if !core.ShouldBorrow(d) {
			fmt.Printf("note: %s is sharing-heavy; the AGS policy would keep it consolidated\n", d.Name)
		}
		if _, err := sched.Apply(s, "job", d, *threads, 1e9); err != nil {
			fmt.Fprintln(os.Stderr, "agsched:", err)
			os.Exit(1)
		}
	} else {
		if _, err := s.Submit("job", d, server.ConsolidatedPlacements(*threads), 1e9); err != nil {
			fmt.Fprintln(os.Stderr, "agsched:", err)
			os.Exit(1)
		}
		keep := *onCores - *threads
		if keep < 0 {
			keep = 0
		}
		s.GateUnloadedCores(keep, 0)
	}
	s.SetMode(m)

	s.Settle(2)
	reb := core.NewRebalancer()
	// Sum each sensor once per 1 ms step; dividing by the step count gives
	// the time average over the measured span.
	type socketSums struct{ power, undervolt, freq, mips, temp float64 }
	var totalPower float64
	sockets := make([]socketSums, s.Sockets())
	for i := 0; i < steps; i++ {
		s.Step(chip.DefaultStepSec)
		if *rebalance {
			reb.Tick(s, chip.DefaultStepSec)
		}
		totalPower += float64(s.TotalPower())
		for si := range sockets {
			c, sum := s.Chip(si), &sockets[si]
			sum.power += float64(c.ChipPower())
			sum.undervolt += float64(c.UndervoltMV())
			sum.freq += float64(c.CoreFreq(0))
			sum.mips += float64(c.TotalMIPS())
			sum.temp += float64(c.Temperature())
		}
	}

	schedule := "consolidated"
	if *borrow {
		schedule = "loadline-borrowing"
	}
	n := float64(steps)
	fmt.Printf("%s: %d threads of %s, %s mode, %.3f s measured\n",
		schedule, *threads, d.Name, m, n*chip.DefaultStepSec)
	fmt.Printf("  total power      %8.1f W\n", totalPower/n)
	for si, sum := range sockets {
		fmt.Printf("  socket %d: %6.1f W  undervolt %5.1f mV  freq %6.0f MHz  %8.0f MIPS  %5.1f °C\n",
			si, sum.power/n, sum.undervolt/n, sum.freq/n, sum.mips/n, sum.temp/n)
	}
	absorbed, violations := s.Chip(0).DroopStats()
	fmt.Printf("  droops absorbed %d, timing violations %d\n", absorbed, violations)
	if *rebalance {
		fmt.Printf("  rebalancer migrations: %d\n", reb.Migrations())
	}
}
