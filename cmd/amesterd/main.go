// Command amesterd plays the role of the service processor in the paper's
// measurement setup: it runs the simulated Power 720 under a chosen
// schedule and serves its sensors over the AMESTER line protocol, so any
// number of measurement clients can sample power, voltage, frequency and
// CPM state at the 32 ms cadence.
//
// Server:
//
//	amesterd -listen 127.0.0.1:7007 -workload raytrace -threads 8 -mode undervolt
//
// Client (one-shot dump or watch):
//
//	amesterd -connect 127.0.0.1:7007
//	amesterd -connect 127.0.0.1:7007 -watch total_power_w,p0_undervolt_mv -samples 20
//
// With -http ADDR the server also exposes the flight recorder over HTTP:
// GET /metrics returns the merged counters, gauges and histograms in
// Prometheus text format, GET /manifest the JSON run manifest (workload
// config, seed, git revision, wall and simulated time), GET /health the
// watchdog findings, GET /stream a server-sent-event heartbeat per
// telemetry publish, and /debug/pprof the profiler. With -timeseries the
// multi-resolution telemetry plane records power, frequency, rail and
// guardband-margin series, served by GET /timeseries?name=...&res=....
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"agsim/internal/amester"
	"agsim/internal/chip"
	"agsim/internal/experiments"
	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/snapshot"
	"agsim/internal/sweepd"
)

func main() {
	listen := flag.String("listen", "", "serve a simulated server's telemetry on this address")
	connect := flag.String("connect", "", "connect to a running amesterd and read sensors")
	sweep := flag.String("sweep", "", `coordinate a distributed sweep over these experiment ids ("all" = every registered experiment) on the -listen address`)
	leaseTTL := flag.Duration("lease-ttl", sweepd.DefaultLeaseTTL, "sweep mode: how long a worker may hold a unit before it is re-queued")
	quick := flag.Bool("quick", false, "sweep mode: reduced-fidelity sweeps")
	sweepWorkers := flag.Int("sweep-workers", 1, "sweep mode: per-unit worker pool each agsim worker uses")
	exact := flag.Bool("exact", false, "sweep mode: pure 1 ms reference lane")
	name := flag.String("workload", "raytrace", "benchmark to run (server mode)")
	threads := flag.Int("threads", 8, "thread count (server mode)")
	mode := flag.String("mode", "undervolt", "guardband mode: static | undervolt | overclock")
	borrow := flag.Bool("borrow", true, "balance threads across sockets (server mode)")
	httpAddr := flag.String("http", "", "serve /metrics, /manifest, /timeseries, /health, /stream and /debug/pprof on this address (server mode)")
	timeseries := flag.Bool("timeseries", false, "record multi-resolution time-series and guardband attribution (server mode)")
	snapDir := flag.String("snap-dir", "", "write periodic state snapshots into this directory (server mode; replay them with `agsim replay`)")
	snapEvery := flag.Float64("snap-every", 1.0, "simulated seconds between snapshots when -snap-dir is set")
	seed := flag.Uint64("seed", 0, "simulation seed (0 = wall clock, server mode)")
	watch := flag.String("watch", "", "comma-separated sensors to stream (client mode)")
	samples := flag.Int("samples", 10, "samples to stream in watch mode")
	flag.Parse()

	switch {
	case *sweep != "" && *listen != "":
		o := experiments.DefaultOptions()
		if *quick {
			o = experiments.QuickOptions()
		}
		if *seed != 0 {
			o.Seed = *seed
		}
		o.Workers = *sweepWorkers
		o.Exact = *exact
		if err := coordinate(*listen, *sweep, o, *leaseTTL); err != nil {
			fmt.Fprintln(os.Stderr, "amesterd:", err)
			os.Exit(1)
		}
	case *listen != "" && *connect == "":
		if err := serve(*listen, *httpAddr, *name, *threads, *mode, *borrow, *seed, *timeseries, *snapDir, *snapEvery); err != nil {
			fmt.Fprintln(os.Stderr, "amesterd:", err)
			os.Exit(1)
		}
	case *connect != "" && *listen == "":
		if err := client(*connect, *watch, *samples); err != nil {
			fmt.Fprintln(os.Stderr, "amesterd:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: amesterd -listen ADDR [server flags] | amesterd -connect ADDR [-watch sensors]")
		fmt.Fprintln(os.Stderr, "       amesterd -listen ADDR -sweep all [-quick] [-seed N] [-exact] [-lease-ttl D]")
		os.Exit(2)
	}
}

// coordinate runs the distributed-sweep coordinator: lease units to agsim
// workers over /work, merge their renders from /result, print the
// assembled sweep (byte-identical to a serial run of the same units) and
// exit. SIGINT/SIGTERM drains gracefully: no new leases are issued,
// workers exit on their next poll, and whatever merged so far is printed
// with the missing units listed — expired leases were already re-queued
// along the way, so an interrupted sweep never silently drops coverage.
func coordinate(addr, sweep string, o experiments.Options, ttl time.Duration) error {
	var units []string
	if sweep == "all" {
		units = experiments.UnitIDs()
	} else {
		for _, id := range strings.Split(sweep, ",") {
			id = strings.TrimSpace(id)
			if _, ok := experiments.Lookup(id); !ok {
				return fmt.Errorf("unknown experiment %q (try: agsim list)", id)
			}
			units = append(units, id)
		}
	}
	opts, err := json.Marshal(o.Wire())
	if err != nil {
		return err
	}
	coord := sweepd.New(units, opts, ttl)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer l.Close()
	go func() {
		if err := http.Serve(l, coord.Handler()); err != nil && !strings.Contains(err.Error(), "use of closed") {
			fmt.Fprintln(os.Stderr, "amesterd: sweep http:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "amesterd: coordinating %d units on http://%s (lease ttl %s)\n", len(units), l.Addr(), ttl)
	fmt.Fprintf(os.Stderr, "amesterd: start workers with: agsim worker http://%s\n", l.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-coord.Done():
	case s := <-sig:
		coord.Drain()
		st := coord.Status()
		fmt.Fprintf(os.Stderr, "amesterd: %v: draining (%d/%d done, %d leased, %d re-queued)\n",
			s, st.Done, st.Total, st.Leased, st.Requeued)
	}
	// Grace window: keep answering /work with 410 for a beat so workers
	// mid-poll exit cleanly instead of hitting a closed listener.
	coord.Drain()
	defer time.Sleep(1 * time.Second)
	merged, missing := coord.Merge()
	fmt.Print(merged)
	st := coord.Status()
	fmt.Fprintf(os.Stderr, "amesterd: sweep %d/%d units merged (%d re-queued after lease expiry)\n",
		st.Done, st.Total, st.Requeued)
	if len(missing) > 0 {
		return fmt.Errorf("sweep incomplete, missing: %s", strings.Join(missing, ", "))
	}
	return nil
}

func serve(addr, httpAddr, name string, threads int, modeName string, borrow bool, seed uint64, timeseries bool, snapDir string, snapEvery float64) error {
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	scenario := amester.Scenario{
		Workload: name, Threads: threads, Mode: modeName,
		Borrow: borrow, Seed: seed, Timeseries: timeseries,
	}
	srv, rec, err := scenario.Build()
	if err != nil {
		return err
	}

	svc := amester.NewService(amester.ServerProbes(srv)...)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	svc.Start(l)
	defer svc.Close()
	fmt.Printf("amesterd: serving %d threads of %s (%s, borrow=%v) on %s\n",
		threads, name, modeName, borrow, l.Addr())

	// The step loop owns the server and recorder; scrape handlers take the
	// same mutex so a snapshot never races a live step. The recorder's hot
	// path is deliberately unlocked, so this is the only synchronization.
	var mu sync.Mutex
	var api *amester.API
	if httpAddr != "" {
		manifest := obs.NewManifest("amesterd", seed)
		manifest.Config = map[string]any{
			"workload":   name,
			"threads":    threads,
			"mode":       modeName,
			"borrow":     borrow,
			"timeseries": timeseries,
		}
		api = amester.NewAPI(amester.APIConfig{
			Recorder: rec,
			Manifest: manifest,
			Mu:       &mu,
			SimTime:  srv.Time,
		})
		hl, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return err
		}
		defer hl.Close()
		go func() {
			if err := http.Serve(hl, api.Handler()); err != nil {
				fmt.Fprintln(os.Stderr, "amesterd: http:", err)
			}
		}()
		fmt.Printf("amesterd: http api on http://%s/{metrics,manifest,timeseries,health,stream,debug/pprof}\n",
			hl.Addr())
	}

	// Run the simulation forever, publishing on the firmware cadence.
	// Wall-clock pacing keeps remote watch output humane: one publish per
	// 32 ms of real time.
	// SIGINT/SIGTERM close the telemetry service and listeners cleanly
	// instead of dying mid-publish; a final snapshot is written when
	// snapshotting is on, so a restart can replay right up to the kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	ticker := time.NewTicker(time.Duration(firmware.TickSeconds * float64(time.Second)))
	defer ticker.Stop()
	stepsPerTick := int(firmware.TickSeconds / chip.DefaultStepSec)
	nextSnap := snapEvery
	writeSnap := func() error {
		img, err := snapshot.Save(srv, snapshot.Meta{
			Seed: seed, Revision: "amesterd", Extra: scenario.Marshal(), TimeSec: srv.Time(),
		})
		if err != nil {
			return err
		}
		path := filepath.Join(snapDir, fmt.Sprintf("amesterd-%012.3fs.snap", srv.Time()))
		if err := os.WriteFile(path, img, 0o644); err != nil {
			return err
		}
		fmt.Printf("amesterd: snapshot %s (%d bytes)\n", path, len(img))
		return nil
	}
	for {
		select {
		case s := <-sig:
			mu.Lock()
			defer mu.Unlock()
			fmt.Printf("amesterd: %v: shutting down at t=%.3fs\n", s, srv.Time())
			if snapDir != "" {
				if err := writeSnap(); err != nil {
					return err
				}
			}
			return nil
		case <-ticker.C:
		}
		mu.Lock()
		for i := 0; i < stepsPerTick; i++ {
			srv.Step(chip.DefaultStepSec)
		}
		svc.Publish()
		if snapDir != "" && srv.Time() >= nextSnap {
			if err := writeSnap(); err != nil {
				mu.Unlock()
				return err
			}
			nextSnap = srv.Time() + snapEvery
		}
		mu.Unlock()
		if api != nil {
			api.Publish()
		}
	}
}

func client(addr, watch string, samples int) error {
	c, err := amester.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	if watch == "" {
		all, err := c.GetAll()
		if err != nil {
			return err
		}
		names := make([]string, 0, len(all))
		for n := range all {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-24s %12.3f\n", n, all[n])
		}
		return nil
	}

	sensors := strings.Split(watch, ",")
	fmt.Println(strings.Join(sensors, "\t"))
	lastSeq := uint64(0)
	for printed := 0; printed < samples; {
		seq, err := c.Seq()
		if err != nil {
			return err
		}
		if seq == lastSeq {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		lastSeq = seq
		row := make([]string, len(sensors))
		for i, s := range sensors {
			v, err := c.Get(strings.TrimSpace(s))
			if err != nil {
				return err
			}
			row[i] = fmt.Sprintf("%.3f", v)
		}
		fmt.Println(strings.Join(row, "\t"))
		printed++
	}
	return nil
}
