package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"agsim/internal/amester"
	"agsim/internal/chip"
	"agsim/internal/obs"
	"agsim/internal/snapshot"
)

// replayCmd is snapshot-anchored time travel: restore an amesterd snapshot
// into a freshly built identical server (the header's scenario record says
// how), then step forward until the requested event fires — "show me the
// next droop after this checkpoint" without re-running the minutes that
// led up to it.
func replayCmd(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	from := fs.String("from", "", "snapshot file written by `amesterd -snap-dir` (required)")
	until := fs.String("until", "", "stop at the Nth event of this kind, as kind or kind:N (droop, throttle, dvfs, cpm-window, thread-done, guardband-attrib, ...)")
	maxSec := fs.Float64("max-sec", 10, "give up after this much additional simulated time")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: agsim replay -from FILE.snap [-until kind[:N]] [-max-sec S]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *from == "" {
		fs.Usage()
		os.Exit(2)
	}
	// Bad flags exit before the snapshot is read, as run/report flags do.
	var kind obs.Kind
	want := 0
	if *until != "" {
		var err error
		if kind, want, err = parseUntil(*until); err != nil {
			fmt.Fprintln(os.Stderr, "agsim replay:", err)
			os.Exit(2)
		}
	}
	if !(*maxSec > 0) || math.IsInf(*maxSec, 1) {
		fmt.Fprintf(os.Stderr, "agsim replay: bad -max-sec %v: want a finite value > 0\n", *maxSec)
		os.Exit(2)
	}
	if err := replay(*from, kind, want, *maxSec); err != nil {
		fmt.Fprintln(os.Stderr, "agsim replay:", err)
		os.Exit(1)
	}
}

// parseUntil splits "kind" or "kind:N" into the event kind and the
// occurrence count N >= 1.
func parseUntil(s string) (obs.Kind, int, error) {
	name, n := s, 1
	if i := strings.LastIndex(s, ":"); i >= 0 {
		name = s[:i]
		var err error
		if n, err = strconv.Atoi(s[i+1:]); err != nil || n < 1 {
			return 0, 0, fmt.Errorf("bad -until %q: want kind or kind:N with N >= 1", s)
		}
	}
	kind, err := obs.ParseKind(name)
	if err != nil {
		return 0, 0, fmt.Errorf("bad -until %q: %w", s, err)
	}
	return kind, n, nil
}

// replay restores the snapshot at path and steps until the want-th event
// of kind; with want 0 it only reports the restored state.
func replay(path string, kind obs.Kind, want int, maxSec float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	meta, err := snapshot.ReadMeta(data)
	if err != nil {
		return err
	}
	sc, err := amester.ParseScenario(meta.Extra)
	if err != nil {
		return fmt.Errorf("%s was not written by amesterd -snap-dir: %w", path, err)
	}
	srv, rec, err := sc.Build()
	if err != nil {
		return err
	}
	if _, err := snapshot.Load(data, srv); err != nil {
		return err
	}
	fmt.Printf("replay: restored %s at t=%.3fs (%d threads of %s, %s, seed %d)\n",
		path, srv.Time(), sc.Threads, sc.Workload, sc.Mode, sc.Seed)

	if want == 0 {
		// No target: just confirm the restore and report the state.
		fmt.Printf("replay: power %.1f W at t=%.3fs — pass -until kind[:N] to step forward\n",
			float64(srv.TotalPower()), srv.Time())
		return nil
	}

	// Step forward one firmware tick at a time, scanning only events newer
	// than the restore point. Event timestamps are on the shared microsecond
	// grid, so the cut is exact.
	afterUS := obs.StampUS(srv.Time())
	deadline := srv.Time() + maxSec
	seen := 0
	for srv.Time() < deadline {
		for i := 0; i < 32; i++ {
			srv.Step(chip.DefaultStepSec)
		}
		for _, ev := range rec.SnapshotWithEvents().Events {
			if ev.TimeUS <= afterUS || ev.Kind != kind {
				continue
			}
			seen++
			if seen < want {
				afterUS = ev.TimeUS
				continue
			}
			fmt.Printf("replay: %s #%d at t=%.6fs (+%.6fs after snapshot)\n",
				kind, want, float64(ev.TimeUS)/1e6, float64(ev.TimeUS)/1e6-meta.TimeSec)
			fmt.Printf("replay:   core=%d A=%.3f B=%.3f C=%d\n", ev.Core, ev.A, ev.B, ev.C)
			fmt.Printf("replay:   server now at t=%.3fs, power %.1f W\n",
				srv.Time(), float64(srv.TotalPower()))
			return nil
		}
	}
	return fmt.Errorf("no %q event #%d within %.1fs of the snapshot (saw %d)", kind, want, maxSec, seen)
}
