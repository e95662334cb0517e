package amester

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"

	"agsim/internal/health"
	"agsim/internal/obs"
	"agsim/internal/tsdb"
)

// API serves the observability plane over HTTP — the live counterpart of
// the files -metrics and -trace write after a batch run:
//
//	GET /metrics             merged counters/gauges/histograms, Prometheus text
//	GET /manifest            the JSON run manifest
//	GET /timeseries          series inventory (name, source and spec per series)
//	GET /timeseries?name=N   one merged series, every level (&res=L for one)
//	GET /health              detector findings over a fresh snapshot
//	GET /stream              server-sent events, one per Publish
//	GET /debug/pprof/...     the runtime profiler
//
// Snapshot-producing handlers take the configured mutex, the same lock
// the simulation step loop holds while stepping, so a scrape never races
// a live step — the recorder's hot path is deliberately unlocked and
// this is the only synchronization.
type API struct {
	cfg  APIConfig
	mu   sync.Mutex // guards subs; APIConfig.Mu guards the recorder
	subs map[chan struct{}]struct{}
}

// APIConfig wires an API to a running simulation.
type APIConfig struct {
	// Recorder roots the observation tree the endpoints snapshot.
	Recorder *obs.Recorder
	// Manifest, when non-nil, backs /manifest (SimSeconds is refreshed
	// from SimTime on each request).
	Manifest *obs.Manifest
	// Mu, when non-nil, is held around every recorder snapshot; share it
	// with the simulation step loop.
	Mu *sync.Mutex
	// SimTime reports the simulated clock (optional).
	SimTime func() float64
	// Thresholds configures /health; the zero value selects
	// health.Default().
	Thresholds health.Thresholds
}

// NewAPI builds the HTTP plane. A zero-value Thresholds field is
// replaced with health.Default().
func NewAPI(cfg APIConfig) *API {
	if cfg.Thresholds == (health.Thresholds{}) {
		cfg.Thresholds = health.Default()
	}
	return &API{cfg: cfg, subs: make(map[chan struct{}]struct{})}
}

// lock holds the shared simulation mutex, when one is configured.
func (a *API) lock() func() {
	if a.cfg.Mu == nil {
		return func() {}
	}
	a.cfg.Mu.Lock()
	return a.cfg.Mu.Unlock
}

// snapshot takes a merged log under the simulation lock.
func (a *API) snapshot() obs.Log {
	unlock := a.lock()
	defer unlock()
	return a.cfg.Recorder.Snapshot()
}

// simTime reads the simulated clock under the simulation lock.
func (a *API) simTime() float64 {
	if a.cfg.SimTime == nil {
		return 0
	}
	unlock := a.lock()
	defer unlock()
	return a.cfg.SimTime()
}

// Publish wakes every /stream subscriber; call it on the telemetry
// cadence (the same place Service.Publish runs).
func (a *API) Publish() {
	a.mu.Lock()
	for ch := range a.subs {
		select {
		case ch <- struct{}{}:
		default: // a slow subscriber keeps its pending wake
		}
	}
	a.mu.Unlock()
}

// Handler returns the API's mux.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/manifest", a.handleManifest)
	mux.HandleFunc("/timeseries", a.handleTimeseries)
	mux.HandleFunc("/health", a.handleHealth)
	mux.HandleFunc("/stream", a.handleStream)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	lg := a.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := lg.WriteProm(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (a *API) handleManifest(w http.ResponseWriter, r *http.Request) {
	if a.cfg.Manifest == nil {
		http.Error(w, "no manifest configured", http.StatusNotFound)
		return
	}
	unlock := a.lock()
	if a.cfg.SimTime != nil {
		a.cfg.Manifest.SimSeconds = a.cfg.SimTime()
	}
	unlock()
	w.Header().Set("Content-Type", "application/json")
	if err := a.cfg.Manifest.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// seriesInfo is one row of the /timeseries inventory.
type seriesInfo struct {
	Name   string    `json:"name"`
	Source string    `json:"source"`
	Spec   tsdb.Spec `json:"spec"`
}

// seriesBody is the /timeseries?name=... payload: the fleet-merged
// windows of one series, one slice per resolution level (or a single
// level under &res=).
type seriesBody struct {
	Name   string          `json:"name"`
	Spec   tsdb.Spec       `json:"spec"`
	Levels [][]tsdb.Window `json:"levels"`
}

func (a *API) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	lg := a.snapshot()
	name := r.URL.Query().Get("name")
	w.Header().Set("Content-Type", "application/json")
	if name == "" {
		infos := []seriesInfo{}
		for i := range lg.Series {
			d := &lg.Series[i]
			infos = append(infos, seriesInfo{Name: d.Name, Source: d.Source, Spec: d.Spec})
		}
		sort.Slice(infos, func(i, j int) bool {
			if infos[i].Name != infos[j].Name {
				return infos[i].Name < infos[j].Name
			}
			return infos[i].Source < infos[j].Source
		})
		writeJSON(w, map[string]any{"series": infos})
		return
	}
	spec, levels, ok := lg.MergedSeries(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown series %q", name), http.StatusNotFound)
		return
	}
	if res := r.URL.Query().Get("res"); res != "" {
		li, err := strconv.Atoi(res)
		if err != nil || li < 0 || li >= len(levels) {
			http.Error(w, fmt.Sprintf("res must be 0..%d", len(levels)-1), http.StatusBadRequest)
			return
		}
		spec = tsdb.Spec{Levels: spec.Levels[li : li+1]}
		levels = levels[li : li+1]
	}
	writeJSON(w, seriesBody{Name: name, Spec: spec, Levels: levels})
}

// healthFinding is one detector firing, rendered for the wire.
type healthFinding struct {
	Source    string  `json:"source,omitempty"`
	Detector  string  `json:"detector"`
	Status    string  `json:"status"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	TimeUS    int64   `json:"time_us"`
	Msg       string  `json:"msg"`
}

func (a *API) handleHealth(w http.ResponseWriter, r *http.Request) {
	lg := a.snapshot()
	findings := health.Evaluate(&lg, a.cfg.Thresholds)
	body := struct {
		Status   string          `json:"status"`
		Findings []healthFinding `json:"findings"`
	}{Status: health.Worst(findings).String(), Findings: []healthFinding{}}
	for _, f := range findings {
		body.Findings = append(body.Findings, healthFinding{
			Source:    f.Source,
			Detector:  f.Detector.String(),
			Status:    f.Status.String(),
			Value:     f.Value,
			Threshold: f.Threshold,
			TimeUS:    f.TimeUS,
			Msg:       f.Msg,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, body)
}

// streamFrame is one SSE data payload: the heartbeat a dashboard polls
// /timeseries and /health off of.
type streamFrame struct {
	Seq        uint64  `json:"seq"`
	SimSeconds float64 `json:"sim_seconds"`
	Series     int     `json:"series"`
	Events     int     `json:"events"`
	EventsLost uint64  `json:"events_lost"`
	Status     string  `json:"status"`
}

func (a *API) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	ch := make(chan struct{}, 1)
	a.mu.Lock()
	a.subs[ch] = struct{}{}
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.subs, ch)
		a.mu.Unlock()
	}()

	var seq uint64
	send := func() bool {
		lg := a.snapshot()
		findings := health.Evaluate(&lg, a.cfg.Thresholds)
		frame := streamFrame{
			Seq:        seq,
			SimSeconds: a.simTime(),
			Series:     len(lg.Series),
			Events:     len(lg.Events),
			EventsLost: lg.EventsLost,
			Status:     health.Worst(findings).String(),
		}
		seq++
		data, err := json.Marshal(frame)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	// First frame immediately: a subscriber sees state without waiting a
	// publish interval.
	if !send() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ch:
			if !send() {
				return
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
