// WebSearch QoS: the fleet-scale serving study, run through the registered
// `websearch-qos` experiment driver — the same code path `agsim -run
// websearch-qos` and the accuracy harness execute, so this example cannot
// drift from the registered experiment.
//
//	go run ./examples/websearch_qos [-quick] [-nodes N] [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"

	"agsim/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced-fidelity sweep (fewer loads, shorter spans)")
	nodes := flag.Int("nodes", 0, "fleet size (0 selects the default)")
	workers := flag.Int("workers", 0, "worker pool width (0 selects GOMAXPROCS)")
	full := flag.Bool("full", false, "print figures and tables, not just headlines")
	flag.Parse()

	exp, ok := experiments.Lookup("websearch-qos")
	if !ok {
		fmt.Fprintln(os.Stderr, "websearch-qos is not registered")
		os.Exit(1)
	}

	o := experiments.DefaultOptions()
	if *quick {
		o = experiments.QuickOptions()
	}
	o.Nodes = *nodes
	o.Workers = *workers

	fmt.Printf("%s — %s\n", exp.ID, exp.Title)
	fmt.Printf("paper: %s\n\n", exp.Paper)
	rep := exp.Run(o)
	if err := rep.Write(os.Stdout, *full); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
