package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// runConfig is one agbench run: which workloads, the seed, how long each
// measures, and whether this is the traced run.
type runConfig struct {
	workloads []string
	seed      uint64
	seconds   float64
	trace     bool
	// procs is how many fresh processes each workload runs in; setup_s
	// is the median of their set-ups.
	procs     int
	goldenDir string
	outPath   string
	tracePath string
	scale     scale
	// child runs one workload process; spawnChild by default.
	child func(childConfig) (*childResult, error)
}

// hostInfo records what a run was measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: workers, GoVersion: runtime.Version(),
		Revision: "unknown", OS: runtime.GOOS, Arch: runtime.GOARCH}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// workloadReport is one workload's results in the run's JSON file.
type workloadReport struct {
	Name         string        `json:"name"`
	Why          string        `json:"why"`
	Correct      bool          `json:"correct"`
	Attempted    int           `json:"attempted"`
	Failed       int           `json:"failed"`
	GoldenSeed   uint64        `json:"golden_seed"`
	ErrVsRef     float64       `json:"err_vs_ref"`
	Checked      int           `json:"checked_outputs"`
	Digest       string        `json:"outputs_sha256"`
	BitIdentical *bool         `json:"bit_identical_to_golden,omitempty"`
	Notes        []string      `json:"notes,omitempty"`
	Deviations   []string      `json:"deviations,omitempty"`
	Metrics      []metric      `json:"metrics"`
	Layers       []layerRow    `json:"layers,omitempty"`
	LaneMS       float64       `json:"lane_ms,omitempty"`
	TracedS      float64       `json:"traced_wall_s,omitempty"`
	UntracedS    float64       `json:"untraced_wall_s,omitempty"`
	Kernel       *kernelResult `json:"kernel,omitempty"`
}

// report is a run's JSON file.
type report struct {
	Host      hostInfo         `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadReport `json:"workloads"`
	// Metrics holds run-wide metrics (the traced run's overhead).
	Metrics []metric `json:"metrics,omitempty"`
}

// runSuite runs the workloads, each in its own processes, prints a line per
// (workload, metric), writes the JSON report, and ends with the one-line
// JSON summary.
func runSuite(w io.Writer, cfg runConfig) (report, error) {
	rep := report{Host: host(), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	fmt.Fprintf(w, "# agbench seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d %s rev=%s\n",
		cfg.seed, cfg.seconds, cfg.trace, rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Revision)
	names := cfg.workloads
	if cfg.trace {
		// Each per-layer metric is measured on its home workload, so the
		// traced run covers all of them whichever workload was asked for.
		names = nil
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
	}
	var events []chromeEvent
	for _, name := range names {
		wr, evs, err := runWorkload(cfg, name)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", name, err)
		}
		events = append(events, evs...)
		rep.Workloads = append(rep.Workloads, wr)
		printWorkload(w, wr)
	}
	if cfg.trace {
		var traced, untraced float64
		for _, wr := range rep.Workloads {
			traced += wr.TracedS
			untraced += wr.UntracedS
		}
		ov := single("trace.overhead_frac", "fraction", "lower", traced/untraced-1)
		rep.Metrics = append(rep.Metrics, ov)
		printMetric(w, "all", ov, true)
		if cfg.tracePath != "" {
			if err := writeFile(cfg.tracePath, func(f io.Writer) error { return writeChromeTo(f, events) }); err != nil {
				return rep, err
			}
			fmt.Fprintf(w, "# chrome trace: %s (%d spans)\n", cfg.tracePath, len(events))
		}
	}
	if cfg.outPath != "" {
		if err := writeFile(cfg.outPath, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", " ")
			return enc.Encode(rep)
		}); err != nil {
			return rep, err
		}
		fmt.Fprintf(w, "# results: %s\n", cfg.outPath)
	}
	line, err := summaryLine(rep, cfg.trace)
	if err != nil {
		return rep, err
	}
	fmt.Fprintln(w, line)
	return rep, nil
}

// runWorkload runs the workload in cfg.procs fresh processes, one after
// another, and pools their passes; setup_s is the median of their
// set-ups. Each process measures for its share of the timed seconds still
// left, so the timed window is spread over the run; the first runs at
// least one pass, the others none when a pass would not fit. A traced run
// uses one process.
func runWorkload(cfg runConfig, name string) (workloadReport, []chromeEvent, error) {
	wl, _ := lookupWorkload(name)
	wr := workloadReport{Name: name, Why: wl.why}
	runs := max(cfg.procs, 1)
	if cfg.trace {
		runs = 1
	}
	var setups, rawSetups, rss []float64
	var passes []passSummary
	var last, ref *childResult
	left := cfg.seconds
	for i := 0; i < runs; i++ {
		cc := childConfig{Workload: name, Seed: cfg.seed, Seconds: left / float64(runs-i), Trace: cfg.trace,
			GoldenDir: cfg.goldenDir, Scale: cfg.scale}
		if i == 0 {
			cc.MinPasses = 1
		}
		r, err := cfg.child(cc)
		if err != nil {
			return wr, nil, err
		}
		setups = append(setups, r.SetupS)
		rawSetups = append(rawSetups, r.RawSetupS)
		rss = append(rss, r.PeakRSSMB)
		passes = append(passes, r.Passes...)
		for _, p := range r.Passes {
			left -= p.WallS
		}
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.Notes = append(wr.Notes, r.Notes...)
		wr.ErrVsRef = max(wr.ErrVsRef, r.ErrVsRef)
		// A process with neither a timed pass nor a warm-up at the run's
		// seed has no outputs to compare.
		if r.Digest != "" && ref != nil {
			wr.Attempted++
			if r.Digest != ref.Digest {
				wr.Failed++
				wr.Notes = append(wr.Notes, fmt.Sprintf("process %d's outputs differ from an earlier process's at the same seed", i+1))
			}
		}
		if r.Digest != "" && ref == nil {
			ref = r
		}
		last = r
	}
	wr.Correct = wr.Failed == 0
	wr.GoldenSeed, wr.Checked = last.GoldenSeed, last.Checked
	wr.Digest, wr.BitIdentical, wr.Deviations = ref.Digest, ref.BitIdentical, last.Deviations
	wr.Layers, wr.LaneMS, wr.TracedS, wr.UntracedS, wr.Kernel = last.Layers, last.LaneMS, last.TracedS, last.UntracedS, last.Kernel
	wr.Metrics = last.Metrics
	if !cfg.trace {
		wr.Metrics = passMetrics(passes, setups, rawSetups, rss, wr.ErrVsRef, wr.Failed, wr.Attempted)
	}
	return wr, last.Events, nil
}

// spawnChild runs one workload in a fresh process of this binary with
// GOMAXPROCS=1 and waits for it to exit.
func spawnChild(cc childConfig) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"child", "-workload", cc.Workload, "-seed", strconv.FormatUint(cc.Seed, 10),
		"-seconds", strconv.FormatFloat(cc.Seconds, 'g', -1, 64), "-min-passes", strconv.Itoa(cc.MinPasses),
		"-golden", cc.GoldenDir}
	if cc.Trace {
		args = append(args, "-trace", "1")
	}
	t0 := time.Now()
	cmd := exec.Command(exe, append(args, "-t0", strconv.FormatInt(t0.UnixNano(), 10))...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers))
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload process: %w", err)
	}
	var r childResult
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("workload process output: %w", err)
	}
	return &r, nil
}

// printMetric writes one "workload metric value unit n= q1= q3=" line; in
// the traced run a per-layer metric also names the end-to-end metric it
// should move.
func printMetric(w io.Writer, workload string, m metric, traced bool) {
	moves := ""
	if d, ok := layerDef(m.Name); ok && traced {
		moves = " moves=" + d.moves
	}
	fmt.Fprintf(w, "%-13s %-32s %14.6g %-12s n=%-5d q1=%.6g q3=%.6g%s\n", workload, m.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3, moves)
}

func printWorkload(w io.Writer, wr workloadReport) {
	for _, m := range wr.Metrics {
		printMetric(w, wr.Name, m, wr.Layers != nil)
	}
	ident := "n/a (no golden at this seed)"
	if wr.BitIdentical != nil {
		ident = map[bool]string{true: "yes", false: "no"}[*wr.BitIdentical]
	}
	fmt.Fprintf(w, "# %s: %d/%d ops ok, err_vs_ref %.4g x_tol over %d outputs (golden seed %d), outputs sha256 %.16s, bit-identical to golden: %s\n",
		wr.Name, wr.Attempted-wr.Failed, wr.Attempted, wr.ErrVsRef, wr.Checked, wr.GoldenSeed, wr.Digest, ident)
	for _, d := range wr.Deviations {
		fmt.Fprintf(w, "#   recorded deviation %s\n", d)
	}
	for _, n := range wr.Notes {
		fmt.Fprintf(w, "#   FAIL %s\n", n)
	}
	if wr.Layers != nil {
		fmt.Fprintf(w, "# %s traced %.3f s vs untraced %.3f s: tracing overhead %+.1f%%\n",
			wr.Name, wr.TracedS, wr.UntracedS, 100*(wr.TracedS/wr.UntracedS-1))
		fmt.Fprintf(w, "#   %-20s %12s %8s %8s\n", "layer", "self_ms", "calls", "share")
		sum := 0.0
		for _, r := range wr.Layers {
			label := r.Layer
			if label == benchLayer {
				label += " (residual)"
			}
			fmt.Fprintf(w, "#   %-20s %12.2f %8d %7.1f%%\n", label, r.SelfMS, r.Calls, 100*r.Share)
			sum += r.SelfMS
		}
		fmt.Fprintf(w, "#   self times sum to %.2f ms of %.2f ms lane time\n", sum, wr.LaneMS)
	}
	if k := wr.Kernel; k != nil {
		fmt.Fprintf(w, "# %s kernel phase: chip.Step %.0f ns per exact-lane step\n", wr.Name, k.StepNS)
		fmt.Fprintf(w, "#   %-26s %9s %10s %9s %7s\n", "stage", "ns/call", "calls/step", "ns/step", "share")
		for _, r := range k.Rows {
			fmt.Fprintf(w, "#   %-26s %9.1f %10.3f %9.1f %6.1f%%\n", r.Stage, r.NS, r.CallsPerStep, r.NSPerStep, 100*r.NSPerStep/k.StepNS)
		}
		fmt.Fprintf(w, "#   %-26s %9s %10s %9.1f %6.1f%%\n", "chip.step residual", "", "", k.ResidualNS, 100*k.ResidualNS/k.StepNS)
	}
}

// summaryLine is the last line of output: correctness counts and the
// metrics BENCHMARK.json names — the end-to-end ones of the workload when
// untraced, every per-layer one when traced.
func summaryLine(rep report, trace bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	find := func(ms []metric, name string) (metric, bool) {
		for _, m := range ms {
			if m.Name == name {
				return m, true
			}
		}
		return metric{}, false
	}
	for _, wr := range rep.Workloads {
		sum.Attempted += wr.Attempted
		sum.Failed += wr.Failed
		sum.Correct = sum.Correct && wr.Correct
		if trace {
			continue
		}
		for _, name := range boundedEndToEnd {
			m, ok := find(wr.Metrics, name)
			if !ok {
				return "", fmt.Errorf("%s: end-to-end metric %s missing", wr.Name, name)
			}
			key := name
			if len(rep.Workloads) > 1 {
				key = wr.Name + "/" + name
			}
			sum.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	if trace {
		for _, d := range perLayer {
			ms := rep.Metrics
			for _, wr := range rep.Workloads {
				if wr.Name == d.on {
					ms = wr.Metrics
				}
			}
			m, ok := find(ms, d.name)
			if !ok {
				return "", fmt.Errorf("per-layer metric %s missing from %s", d.name, d.on)
			}
			sum.Metrics[d.name] = value{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(sum)
	return string(data), err
}

// writeFile creates path (and its directory) and writes it with fn.
func writeFile(path string, fn func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// workloadNames parses -workload: "all" or a comma-separated list.
func workloadNames(arg string) ([]string, error) {
	if arg == "all" {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return names, nil
	}
	names := strings.Split(arg, ",")
	for _, n := range names {
		if _, ok := lookupWorkload(n); !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return names, nil
}
