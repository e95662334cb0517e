// Scenario is the serving-configuration record amesterd stores in every
// snapshot header (snapshot.Meta.Extra): the constructor arguments of the
// served simulation, enough to rebuild a bit-identical target for
// snapshot.Load. `agsim replay` reads it back, rebuilds the server, and
// restores the image into it — the restore-into-same-shape contract means
// the scenario, not the image, carries the immutable structure.
package amester

import (
	"encoding/json"
	"fmt"

	"agsim/internal/firmware"
	"agsim/internal/obs"
	"agsim/internal/server"
	"agsim/internal/tsdb"
	"agsim/internal/workload"
)

// Scenario captures how an amesterd serve loop built its server.
type Scenario struct {
	Workload   string `json:"workload"`
	Threads    int    `json:"threads"`
	Mode       string `json:"mode"`
	Borrow     bool   `json:"borrow"`
	Seed       uint64 `json:"seed"`
	Timeseries bool   `json:"timeseries"`
}

// Marshal renders the scenario for a snapshot header.
func (sc Scenario) Marshal() string {
	b, _ := json.Marshal(sc)
	return string(b)
}

// ParseScenario reads a snapshot header's Extra back.
func ParseScenario(extra string) (Scenario, error) {
	var sc Scenario
	if err := json.Unmarshal([]byte(extra), &sc); err != nil {
		return sc, fmt.Errorf("amester: bad scenario in snapshot header: %w", err)
	}
	return sc, nil
}

// Build constructs the server and recorder exactly as the serve loop
// does, so a snapshot taken there restores here. It first checks what
// comes from outside — amesterd's flags, a snapshot header: the workload
// and mode must be known and the thread count within [1, sockets × cores]
// of the server it builds, so a bad count is an error before any
// placement is sized by it. The job is placed by server.PlaceOnFree,
// spread across the sockets when Borrow and kept together otherwise, and
// no core is gated.
func (sc Scenario) Build() (*server.Server, *obs.Recorder, error) {
	d, err := workload.Get(sc.Workload)
	if err != nil {
		return nil, nil, err
	}
	mode, err := firmware.ParseMode(sc.Mode)
	if err != nil {
		return nil, nil, err
	}
	cfg := server.DefaultConfig(sc.Seed)
	if cores := cfg.Sockets * cfg.CoresPerSocket; sc.Threads < 1 || sc.Threads > cores {
		return nil, nil, fmt.Errorf("amester: %d threads outside [1, %d], the server's core count", sc.Threads, cores)
	}
	rec := obs.New("amesterd", obs.DefaultEventCap)
	if sc.Timeseries {
		rec.EnableTimeSeries(tsdb.DefaultSpec())
	}
	cfg.Recorder = rec
	srv := server.MustNew(cfg)
	// The thread count fits the empty server (checked above), so
	// PlaceOnFree always finds room.
	placements, _ := server.PlaceOnFree(srv.FreeCores(nil), sc.Threads, !sc.Borrow)
	if _, err := srv.Submit("job", d, placements, 1e9); err != nil {
		return nil, nil, err
	}
	srv.SetMode(mode)
	return srv, rec, nil
}
