// Command agbench is the simulator's benchmark. It runs four workloads
// through agsim's public Go APIs — the full paper report, an exact-lane
// chip grid, the same grid under the sampling governor, and an observed
// serving fleet — each in its own processes with GOMAXPROCS=1, prints every
// metric with its unit and sample count, checks every simulated output
// against committed goldens, and writes the results as JSON. A traced run
// (-trace 1) times each call the benchmark makes into a layer and prints
// per-layer self time. See bench/README.md.
//
// Usage:
//
//	agbench [run] [-workload all|NAME[,NAME]] [-seed N] [-seconds S] [-trace 0|1]
//	              [-golden DIR] [-out FILE] [-trace-out FILE]
//	agbench record -seed N [-workload all|NAME[,NAME]] [-golden DIR]
//	agbench compare [-bounds BENCHMARK.json] A.json... -- B.json...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "agbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "run":
		return runCmd(args, stdout)
	case "record":
		return recordCmd(args, stdout)
	case "compare":
		return compareCmd(args, stdout)
	case "child":
		return childCmd(args, stdout)
	}
	return fmt.Errorf("unknown command %q (want run, record or compare)", cmd)
}

func runCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	wl := fs.String("workload", "all", "workload name, comma-separated names, or all")
	seed := fs.Uint64("seed", goldenSeeds[0], "workload seed")
	seconds := fs.Float64("seconds", 10, "timed seconds per workload, shared by its 3 processes (the first runs at least one pass)")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	golden := fs.String("golden", "bench/golden", "golden directory")
	out := fs.String("out", ".bench_build/agbench-results.json", "results JSON file (empty: none)")
	traceOut := fs.String("trace-out", ".bench_build/agbench-trace.json", "Chrome trace file of the traced run (empty: none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	names, err := workloadNames(*wl)
	if err != nil {
		return err
	}
	_, err = runSuite(stdout, runConfig{
		workloads: names, seed: *seed, seconds: *seconds, trace: *trace == 1, procs: 3,
		goldenDir: *golden, outPath: *out, tracePath: *traceOut, scale: fullScale, child: spawnChild,
	})
	return err
}

func recordCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	wl := fs.String("workload", "all", "workload name, comma-separated names, or all")
	seed := fs.Uint64("seed", 0, "seed to record goldens for")
	golden := fs.String("golden", "bench/golden", "golden directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(goldenSeeds, *seed) {
		return fmt.Errorf("-seed must be one of the golden seeds %v", goldenSeeds)
	}
	names, err := workloadNames(*wl)
	if err != nil {
		return err
	}
	for _, n := range names {
		w, _ := lookupWorkload(n)
		t := time.Now()
		if err := record(*golden, w, *seed); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s (%.1f s)\n", goldenPath(*golden, n, *seed), time.Since(t).Seconds())
	}
	return nil
}

func compareCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bounds := fs.String("bounds", "BENCHMARK.json", "file holding each end-to-end metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	sep := slices.Index(files, "--")
	if sep < 0 {
		return fmt.Errorf("compare: want A.json... -- B.json...")
	}
	return compareRuns(stdout, *bounds, files[:sep], files[sep+1:])
}

// childCmd is the workload process: it prints its result as JSON.
func childCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload")
	seed := fs.Uint64("seed", 0, "seed")
	seconds := fs.Float64("seconds", 0, "timed seconds")
	minPasses := fs.Int("min-passes", 0, "timed passes to run even past -seconds")
	trace := fs.Int("trace", 0, "traced run")
	golden := fs.String("golden", "", "golden directory")
	t0 := fs.Int64("t0", 0, "process start, Unix ns")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runChild(childConfig{Workload: *wl, Seed: *seed, Seconds: *seconds, MinPasses: *minPasses, Trace: *trace == 1,
		T0: time.Unix(0, *t0), GoldenDir: *golden, Scale: fullScale})
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}
