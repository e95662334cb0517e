// Command agsched is a scheduling playground for the simulated Power 720:
// it places a workload under either the consolidation baseline or the
// loadline-borrowing schedule, runs it in a chosen guardband mode, and
// prints live telemetry the way AMESTER would.
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
	"agsim/internal/telemetry"
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

	sampler := telemetry.NewSampler(telemetry.ServerProbes(s)...)
	s.Settle(2)
	sampler.Reset()
	reb := core.NewRebalancer()
	for i := 0; i < steps; i++ {
		s.Step(chip.DefaultStepSec)
		if *rebalance {
			reb.Tick(s, chip.DefaultStepSec)
		}
		sampler.Tick(chip.DefaultStepSec)
	}
	// A duration that is not a multiple of 32 ms leaves a window in
	// flight; flush it so the report reflects the whole measured span.
	sampler.Flush()

	schedule := "consolidated"
	if *borrow {
		schedule = "loadline-borrowing"
	}
	fmt.Printf("%s: %d threads of %s, %s mode, %.3f s measured\n",
		schedule, *threads, d.Name, m, float64(steps)*chip.DefaultStepSec)
	fmt.Printf("  total power      %8.1f W\n", sampler.Mean("total_power_w"))
	for si := 0; si < s.Sockets(); si++ {
		p := fmt.Sprintf("p%d_", si)
		fmt.Printf("  socket %d: %6.1f W  undervolt %5.1f mV  freq %6.0f MHz  %8.0f MIPS  %5.1f °C\n",
			si, sampler.Mean(p+"power_w"), sampler.Mean(p+"undervolt_mv"),
			sampler.Mean(p+"freq0_mhz"), sampler.Mean(p+"mips"), sampler.Mean(p+"temp_c"))
	}
	absorbed, violations := s.Chip(0).DroopStats()
	fmt.Printf("  droops absorbed %d, timing violations %d\n", absorbed, violations)
	if *rebalance {
		fmt.Printf("  rebalancer migrations: %d\n", reb.Migrations())
	}
}
