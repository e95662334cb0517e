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
	"flag"
	"fmt"
	"math"
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
	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/server"
	"agsim/internal/snapshot"
)

func main() {
	listen := flag.String("listen", "", "serve a simulated server's telemetry on this address")
	connect := flag.String("connect", "", "connect to a running amesterd and read sensors")
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
	case *listen != "" && *connect == "":
		// Bad server flags exit 2 before anything listens.
		if !(*snapEvery > 0) || math.IsInf(*snapEvery, 1) {
			fmt.Fprintf(os.Stderr, "amesterd: bad -snap-every %v: want a finite value > 0\n", *snapEvery)
			os.Exit(2)
		}
		if *seed == 0 {
			*seed = uint64(time.Now().UnixNano())
		}
		scenario := amester.Scenario{
			Workload: *name, Threads: *threads, Mode: *mode,
			Borrow: *borrow, Seed: *seed, Timeseries: *timeseries,
		}
		srv, rec, err := scenario.Build()
		if err != nil {
			fmt.Fprintln(os.Stderr, "amesterd:", err)
			os.Exit(2)
		}
		if err := serve(*listen, *httpAddr, scenario, srv, rec, *snapDir, *snapEvery); err != nil {
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
		os.Exit(2)
	}
}

// serve publishes srv, built from scenario with recorder rec, on addr
// (and httpAddr when set) until SIGINT or SIGTERM.
func serve(addr, httpAddr string, scenario amester.Scenario, srv *server.Server, rec *obs.Recorder, snapDir string, snapEvery float64) error {
	seed := scenario.Seed
	svc := amester.NewService(amester.ServerProbes(srv)...)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	svc.Start(l)
	defer svc.Close()
	fmt.Printf("amesterd: serving %d threads of %s (%s, borrow=%v) on %s\n",
		scenario.Threads, scenario.Workload, scenario.Mode, scenario.Borrow, l.Addr())

	// The step loop owns the server and recorder; scrape handlers take the
	// same mutex so a snapshot never races a live step. The recorder's hot
	// path is deliberately unlocked, so this is the only synchronization.
	var mu sync.Mutex
	var api *amester.API
	if httpAddr != "" {
		manifest := obs.NewManifest("amesterd", seed)
		manifest.Config = map[string]any{
			"workload":   scenario.Workload,
			"threads":    scenario.Threads,
			"mode":       scenario.Mode,
			"borrow":     scenario.Borrow,
			"timeseries": scenario.Timeseries,
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
		hs := amester.NewHTTPServer(api.Handler())
		defer hs.Close()
		go func() {
			if err := hs.Serve(hl); err != http.ErrServerClosed {
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
	snaps := newCheckpointer(snapDir, scenario, srv)
	writeSnap := func() error {
		path, size, err := snaps.write()
		if err != nil {
			return err
		}
		fmt.Printf("amesterd: snapshot %s (%d bytes)\n", path, size)
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

// checkpointer writes the served server's images into a directory, one
// file per call. Each image is appended into the one buffer it keeps, so a
// -snap-every loop allocates no image buffer except when an image outgrows
// it, and the buffer then doubles.
type checkpointer struct {
	dir   string
	srv   *server.Server
	meta  snapshot.Meta
	image []byte
}

// newCheckpointer prepares checkpoints of srv, built from scenario, into
// dir.
func newCheckpointer(dir string, scenario amester.Scenario, srv *server.Server) *checkpointer {
	meta := snapshot.Meta{Seed: scenario.Seed, Revision: "amesterd", Extra: scenario.Marshal()}
	return &checkpointer{dir: dir, srv: srv, meta: meta}
}

// write images the server at its current time into
// dir/amesterd-<time>s.snap and returns the path and the image size.
func (c *checkpointer) write() (path string, size int, err error) {
	c.meta.TimeSec = c.srv.Time()
	c.image, err = snapshot.AppendSave(c.image[:0], c.srv, c.meta)
	if err != nil {
		return "", 0, err
	}
	path = filepath.Join(c.dir, fmt.Sprintf("amesterd-%012.3fs.snap", c.meta.TimeSec))
	return path, len(c.image), os.WriteFile(path, c.image, 0o644)
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
