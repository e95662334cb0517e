// Command agsim reproduces the evaluation of "Adaptive Guardband Scheduling
// to Improve System-Level Efficiency of the POWER7+" (MICRO-48, 2015) on
// the simulated Power 720 platform.
//
// Usage:
//
//	agsim list                 enumerate the reproducible figures
//	agsim run <id|all> [flags] run one figure (or all) and print headline
//	                           statistics against the paper's numbers
//	agsim report [flags]       emit the full markdown report EXPERIMENTS.md
//	                           is built from
//	agsim replay -from F.snap  restore an amesterd snapshot and step until
//	                           a flight-recorder event (-until kind[:N])
//
// Flags for run/report:
//
//	-quick        reduced sweeps (seconds instead of minutes)
//	-seed N       experiment seed (default 20151205)
//	-workers N    sweep worker count (0 = GOMAXPROCS, 1 = serial)
//	-exact        disable event-horizon macro-stepping; pure 1 ms
//	              reference lane
//	-mesh         run every chip on the distributed-grid PDN (mesh lane)
//	-sampled      alternate detailed windows with analytic fast-forwards
//	              (phase detector + confidence tracker); headline statistics
//	              carry ± error bars from the stated confidence interval
//	-ci F         sampled lane's relative confidence-interval target
//	              (0 = default 0.01)
//	-nodes N      datacenter sweep fleet size (0 = default 4)
//	-cpuprofile f write a CPU profile of the run to f
//	-memprofile f write a heap profile at exit to f
//	-full         also print every series as CSV (run only)
//	-events       attach the flight recorder and print each experiment's
//	              event timeline and metric summary
//	-timeseries   record multi-resolution time-series (1 ms/32 ms/1 s
//	              rollups of power, frequency, rail and guardband margin),
//	              per-tick guardband attribution, and run the health
//	              detectors over the finished log
//	-trace-out f  write a Chrome trace_event JSON timeline (open in
//	              Perfetto / chrome://tracing); implies recording
//	-metrics-out f write the merged metrics in Prometheus text format;
//	              implies recording
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"agsim/internal/experiments"
	"agsim/internal/health"
	"agsim/internal/obs"
	"agsim/internal/tsdb"
	"agsim/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "replay":
		replayCmd(os.Args[2:])
	case "list":
		for _, e := range experiments.Registry() {
			fmt.Printf("%-7s %s\n        paper: %s\n", e.ID, e.Title, e.Paper)
		}
	case "run":
		runCmd(os.Args[2:])
	case "report":
		reportCmd(os.Args[2:])
	case "workloads":
		if err := workload.Write(os.Stdout, workload.All()); err != nil {
			fmt.Fprintln(os.Stderr, "agsim:", err)
			os.Exit(1)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: agsim {list | run <id|all> [flags] [-full] | report [flags] | workloads | replay -from <snap> [-until kind[:n]]}")
	fmt.Fprintln(os.Stderr, "flags: [-quick] [-seed N] [-workers N] [-mesh] [-exact] [-sampled] [-ci F] [-nodes N] [-events]")
	fmt.Fprintln(os.Stderr, "       [-timeseries] [-trace-out f] [-metrics-out f] [-cpuprofile f] [-memprofile f]")
}

// recording bundles the flight-recorder outputs requested on the command
// line.
type recording struct {
	events     bool
	timeseries bool
	traceOut   string
	metricsOut string
}

// enabled reports whether any output wants the recorder attached.
func (rc recording) enabled() bool {
	return rc.events || rc.timeseries || rc.traceOut != "" || rc.metricsOut != ""
}

// recorder builds a fresh recorder for one experiment. Each experiment
// gets its own because shard names are salted by workload/mode tags, not
// figure ids, and two figures measuring the same configuration would
// collide in a shared recorder. Event rings are only paid for when an
// event consumer (timeline, Chrome trace, or the attribution stream the
// telemetry plane rides) asked for them.
func (rc recording) recorder(id string) *obs.Recorder {
	if !rc.enabled() {
		return nil
	}
	eventCap := 0
	if rc.events || rc.timeseries || rc.traceOut != "" {
		eventCap = obs.DefaultEventCap
	}
	r := obs.New(id, eventCap)
	if rc.timeseries {
		r.EnableTimeSeries(tsdb.DefaultSpec())
	}
	return r
}

// snapshot takes the recorder's log, merging the event rings only for
// the outputs that draw events: the -events timeline and the Chrome trace.
func (rc recording) snapshot(r *obs.Recorder) obs.Log {
	if rc.events || rc.traceOut != "" {
		return r.SnapshotWithEvents()
	}
	return r.Snapshot()
}

// outPath splices the experiment id into the output file name when several
// experiments run, so each keeps its own trace/metrics file.
func outPath(base, id string, multi bool) string {
	if !multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + id + ext
}

// writeRecording renders the snapshot to the requested exporter files.
// With the telemetry plane on, the health detectors run over the log
// first and their findings ride into the Chrome trace as instant events
// (appended at the end of the stream: findings stamp the end of the
// observation span, so time order is preserved).
func writeRecording(lg *obs.Log, rc recording, id string, multi bool) error {
	if rc.timeseries {
		findings := health.Evaluate(lg, health.Default())
		lg.Events = append(lg.Events, health.Events(findings)...)
		for _, f := range findings {
			fmt.Printf("health: %s %s: %s\n", f.Status, f.Detector, f.Msg)
		}
	}
	write := func(path string, render func(w io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if rc.traceOut != "" {
		if err := write(outPath(rc.traceOut, id, multi), lg.WriteChromeTrace); err != nil {
			return err
		}
	}
	if rc.metricsOut != "" {
		if err := write(outPath(rc.metricsOut, id, multi), lg.WriteProm); err != nil {
			return err
		}
	}
	return nil
}

// options registers the shared run/report flags, parses, and returns the
// resolved experiment options, the requested recording outputs, plus a
// profile stopper the caller must invoke (directly or deferred) when the
// measured work is done.
func options(fs *flag.FlagSet, args []string) (experiments.Options, recording, func()) {
	quick := fs.Bool("quick", false, "reduced-fidelity sweeps")
	seed := fs.Uint64("seed", 0, "experiment seed (0 = default)")
	workers := fs.Int("workers", 0, "sweep worker count (0 = GOMAXPROCS, 1 = serial)")
	mesh := fs.Bool("mesh", false, "run every chip on the distributed-grid PDN (mesh-fidelity lane)")
	exact := fs.Bool("exact", false, "disable event-horizon macro-stepping; pure 1 ms reference lane")
	sampled := fs.Bool("sampled", false, "sampled simulation: detailed windows + CI-gated analytic fast-forwards")
	ci := fs.Float64("ci", 0, "sampled lane's relative confidence-interval target (0 = default 0.01)")
	nodes := fs.Int("nodes", 0, "datacenter sweep fleet size (0 = default 4)")
	events := fs.Bool("events", false, "attach the flight recorder; print event timeline and metric summary")
	timeseries := fs.Bool("timeseries", false, "record multi-resolution time-series, guardband attribution and health findings")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON timeline to this file")
	metricsOut := fs.String("metrics-out", "", "write Prometheus text-format metrics to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	o := experiments.DefaultOptions()
	if *quick {
		o = experiments.QuickOptions()
	}
	if *seed != 0 {
		o.Seed = *seed
	}
	o.Workers = *workers
	o.Mesh = *mesh
	o.Exact = *exact
	o.Sampled = *sampled
	o.TargetCI = *ci
	o.Nodes = *nodes
	if err := o.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "agsim:", err)
		os.Exit(2)
	}
	rc := recording{events: *events, timeseries: *timeseries, traceOut: *traceOut, metricsOut: *metricsOut}
	return o, rc, startProfiles(*cpuprofile, *memprofile)
}

// startProfiles begins CPU profiling when requested and returns the stop
// function that finishes the CPU profile and snapshots the heap.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "agsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "agsim:", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "agsim:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the snapshot shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "agsim:", err)
				os.Exit(1)
			}
		}
	}
}

func runCmd(args []string) {
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	id := args[0]
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	full := fs.Bool("full", false, "print full series as CSV")
	o, rc, stopProfiles := options(fs, args[1:])
	defer stopProfiles()

	var targets []experiments.Experiment
	if id == "all" {
		targets = experiments.Registry()
	} else {
		e, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "agsim: unknown experiment %q (try: agsim list)\n", id)
			os.Exit(1)
		}
		targets = []experiments.Experiment{e}
	}
	for _, e := range targets {
		o.Recorder = rc.recorder(e.ID)
		start := time.Now()
		rep := e.Run(o)
		fmt.Printf("%s — %s  [%s]\n", e.ID, e.Title, time.Since(start).Round(time.Millisecond))
		if err := rep.Write(os.Stdout, *full); err != nil {
			fmt.Fprintln(os.Stderr, "agsim:", err)
			os.Exit(1)
		}
		if o.Recorder != nil {
			lg := rc.snapshot(o.Recorder)
			fmt.Println()
			if err := lg.SummaryTable().WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "agsim:", err)
				os.Exit(1)
			}
			if rc.events {
				fmt.Println()
				if err := lg.TimelineFigure().RenderASCII(os.Stdout, 72, 14); err != nil {
					fmt.Fprintln(os.Stderr, "agsim:", err)
					os.Exit(1)
				}
			}
			if err := writeRecording(&lg, rc, e.ID, len(targets) > 1); err != nil {
				fmt.Fprintln(os.Stderr, "agsim:", err)
				os.Exit(1)
			}
		}
		fmt.Println()
	}
}

func reportCmd(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	o, rc, stopProfiles := options(fs, args)
	defer stopProfiles()

	fmt.Println("# EXPERIMENTS — paper vs. measured")
	fmt.Println()
	fmt.Println("Generated by `agsim report`. Every figure of the paper's evaluation,")
	fmt.Println("reproduced on the simulated Power 720 platform (see DESIGN.md for the")
	fmt.Println("substitution methodology). \"Measured\" values come from this run's seed;")
	fmt.Println("tolerances are discussed per figure.")
	fmt.Println()
	fmt.Println("Sweeps fan out over a worker pool (`Options.Workers`, `-workers` flag:")
	fmt.Println("0 = GOMAXPROCS, 1 = serial). Results are bit-identical at any worker")
	fmt.Println("count — see ARCHITECTURE.md, \"Concurrency and determinism\".")
	if o.Mesh {
		fmt.Println()
		fmt.Println("PDN fidelity: distributed mesh (`-mesh`) — every chip solves the")
		fmt.Println("on-die grid via the precomputed transfer-resistance kernel instead")
		fmt.Println("of the lumped plane; see ARCHITECTURE.md, \"The transfer-resistance")
		fmt.Println("mesh kernel\".")
	}
	if o.Exact {
		fmt.Println()
		fmt.Println("Stepping: pure 1 ms reference lane (`-exact`) — event-horizon")
		fmt.Println("macro-stepping disabled; see ARCHITECTURE.md, \"Multi-rate stepping\".")
	} else {
		fmt.Println()
		fmt.Println("Stepping: event-horizon macro-stepping (the default) — settled chips")
		fmt.Println("leap to the next event horizon instead of iterating 1 ms steps; the")
		fmt.Println("`-exact` flag keeps the pure 1 ms reference lane, and every headline")
		fmt.Println("statistic below agrees with it within 1% (pinned per experiment by")
		fmt.Println("the accuracy harness). See ARCHITECTURE.md, \"Multi-rate stepping\",")
		fmt.Println("and the runtime comparison at the end of this report.")
	}
	if o.Sampled {
		fmt.Println()
		fmt.Println("Sampling: sampled lane (`-sampled`) — a governor alternates detailed")
		fmt.Println("windows with analytic fast-forwards once a live phase detector and a")
		fmt.Println("Student-t confidence tracker both agree the signal is predictable;")
		fmt.Println("when they do not, the run converges to full simulation. Every")
		fmt.Println("extrapolated headline statistic below carries a ± error bar from the")
		fmt.Println("worst confidence interval at which any span extrapolated. See")
		fmt.Println("ARCHITECTURE.md, \"Sampled simulation\".")
	}
	fmt.Println()
	fmt.Println("Observability: `-events`, `-trace-out FILE` and `-metrics-out FILE`")
	fmt.Println("attach the flight recorder — a per-experiment summary table, plus a")
	fmt.Println("Chrome trace_event timeline (open it in Perfetto) and Prometheus text")
	fmt.Println("metrics written per experiment. Recording never perturbs results; see")
	fmt.Println("ARCHITECTURE.md, \"Observability\".")
	fmt.Println()
	fmt.Println("Telemetry plane: `-timeseries` additionally records multi-resolution")
	fmt.Println("per-chip series (`power_w`, `freq_mhz`, `rail_mv` per micro-step,")
	fmt.Println("`margin_bits` per firmware tick; 1 ms / 32 ms / 1.024 s rollup rings),")
	fmt.Println("one guardband-attribution event per firmware tick (the `margin (bits)`")
	fmt.Println("counter track in the Chrome trace), and runs the health detectors over")
	fmt.Println("the finished run — droop-storm, throttle-residency, margin-exhaustion")
	fmt.Println("and SLO watchdogs print any warn/critical findings after the summary")
	fmt.Println("and land in the trace as `health: <detector>` instants. A healthy run")
	fmt.Println("prints nothing. The same plane is served live by")
	fmt.Println("`amesterd -listen ADDR -http HADDR -timeseries`: `GET /timeseries`")
	fmt.Println("(inventory, or `?name=power_w&res=1` for one series' windows),")
	fmt.Println("`GET /health`, `GET /stream` (one SSE frame per publish)")
	fmt.Println("alongside `/metrics`, `/manifest` and `/debug/pprof`. Like the")
	fmt.Println("recorder, the plane never perturbs results and the instrumented step")
	fmt.Println("stays at 0 allocs/op; see ARCHITECTURE.md, \"Telemetry plane\".")
	fmt.Println()
	fmt.Println("Checkpoint/restore: the snapshot engine time-travels serving daemons")
	fmt.Println("(`amesterd -snap-dir` + `agsim replay -from FILE.snap -until kind`). See")
	fmt.Println("ARCHITECTURE.md, \"Checkpoint/restore\".")
	runtimes := make([]time.Duration, 0, len(experiments.Registry()))
	for _, e := range experiments.Registry() {
		o.Recorder = rc.recorder(e.ID)
		start := time.Now()
		rep := e.Run(o)
		runtimes = append(runtimes, time.Since(start))
		fmt.Printf("\n## %s — %s\n\n", e.ID, e.Title)
		fmt.Printf("Paper: %s.\n\n", e.Paper)
		fmt.Println("| statistic | measured | paper |")
		fmt.Println("|---|---|---|")
		for _, s := range rep.Headline {
			if s.CI > 0 {
				fmt.Printf("| %s | %.3f ±%.3f | %s |\n", s.Name, s.Value, s.CI, s.Paper)
			} else {
				fmt.Printf("| %s | %.3f | %s |\n", s.Name, s.Value, s.Paper)
			}
		}
		if rep.Sampling != nil {
			total, full := rep.Sampling.Spans()
			fmt.Printf("\n_(sampled: %.0f%% of measured time detailed, %d/%d spans full simulation, worst rel CI %.4f)_\n",
				rep.Sampling.DetailedFraction()*100, full, total, rep.Sampling.WorstRelCI())
		}
		for _, t := range rep.Tables {
			fmt.Println()
			if err := t.WriteMarkdown(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "agsim:", err)
				os.Exit(1)
			}
		}
		if o.Recorder != nil {
			lg := rc.snapshot(o.Recorder)
			fmt.Println()
			if err := lg.SummaryTable().WriteMarkdown(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "agsim:", err)
				os.Exit(1)
			}
			if err := writeRecording(&lg, rc, e.ID, true); err != nil {
				fmt.Fprintln(os.Stderr, "agsim:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("\n_(runtime %s)_\n", runtimes[len(runtimes)-1].Round(time.Millisecond))
	}
	if !o.Exact {
		reportRuntimeComparison(o, runtimes)
	}
}

// reportRuntimeComparison reruns every experiment on the exact 1 ms lane
// and the sampled lane, and tabulates their wall clocks against the
// macro-lane runtimes already measured, so the report documents what
// multi-rate stepping buys at this fidelity.
func reportRuntimeComparison(o experiments.Options, macroRuntimes []time.Duration) {
	fmt.Println()
	fmt.Println("## Runtime — multi-rate stepping vs the exact lane")
	fmt.Println()
	fmt.Println("Wall-clock per experiment at this report's fidelity: the exact 1 ms")
	fmt.Println("reference lane (`-exact`) against the default event-horizon macro lane")
	fmt.Println("that produced the numbers above, plus the sampled lane (`-sampled`),")
	fmt.Println("which extrapolates converged spans and reports its worst stated")
	fmt.Println("confidence interval. The lanes are not bit-identical to one another:")
	fmt.Println("the accuracy harness holds macro headlines within 1% (0.05 absolute)")
	fmt.Println("of the exact lane's at quick fidelity, and at full fidelity they can")
	fmt.Println("drift further (at the default seed, ext-droops' droop rate at 8 cores")
	fmt.Println("is 14.55 events/s on the macro lane and 14.10 on the exact lane); the")
	fmt.Println("sampled lane is statistical, pinned within its CI by the accuracy")
	fmt.Println("harness.")
	fmt.Println()
	fmt.Println("| experiment | exact 1 ms lane | macro lane | sampled lane | macro speedup | sampled worst CI |")
	fmt.Println("|---|---|---|---|---|---|")
	exact := o
	exact.Exact = true
	// The timing reruns never record: a stale recorder would panic on
	// duplicate shard names and the recording already happened above.
	exact.Recorder = nil
	sampled := o
	sampled.Sampled = true
	sampled.Recorder = nil
	var exactTotal, macroTotal, sampledTotal time.Duration
	for i, e := range experiments.Registry() {
		start := time.Now()
		e.Run(exact)
		et := time.Since(start)
		start = time.Now()
		srep := e.Run(sampled)
		st := time.Since(start)
		worstCI := 0.0
		if srep.Sampling != nil {
			worstCI = srep.Sampling.WorstRelCI()
		}
		exactTotal += et
		macroTotal += macroRuntimes[i]
		sampledTotal += st
		fmt.Printf("| %s | %s | %s | %s | %.1fx | %.4f |\n",
			e.ID, et.Round(time.Millisecond), macroRuntimes[i].Round(time.Millisecond),
			st.Round(time.Millisecond), float64(et)/float64(macroRuntimes[i]), worstCI)
	}
	fmt.Printf("| **total** | %s | %s | %s | %.1fx | |\n",
		exactTotal.Round(time.Millisecond), macroTotal.Round(time.Millisecond),
		sampledTotal.Round(time.Millisecond), float64(exactTotal)/float64(macroTotal))
}
