package core

import (
	"fmt"

	"agsim/internal/qos"
	"agsim/internal/rng"
	"agsim/internal/server"
	"agsim/internal/units"
	"agsim/internal/workload"
)

// AGS is the composed adaptive guardband scheduler: the paper's two
// techniques run together against one server. It owns placement (loadline
// borrowing for batch work), runtime rebalancing, and QoS protection for
// critical applications (the Fig. 18 loop, backed by the MIPS-based
// frequency predictor). This is the deployable face of the library: submit
// jobs, call Step, read the reports.
type AGS struct {
	srv *server.Server

	// onCores is the responsiveness floor: cores kept powered, loaded
	// ones included (server.GateUnloadedCores).
	onCores    int
	rebalancer *Rebalancer

	predictor *FreqPredictor

	// critical tracks each protected application, in submission order.
	critical []*protectedApp

	// quantumSec is the scheduling quantum for QoS evaluation: the QoS
	// measurement window.
	quantumSec float64
	sinceSec   float64

	// clockSec is the scheduler's view of simulated time, for event
	// timestamps.
	clockSec float64
	events   *EventLog
}

// protectedApp is one critical application under QoS protection.
type protectedApp struct {
	id      string
	job     *server.Job
	mapper  *AdaptiveMapper
	tracker *qos.Tracker
	socket  int
	core    int

	// sec, mipsSec and freqSec integrate time, the core's throughput and
	// its clock over the app's part of the current quantum; Step scores
	// the quantum on the means, as Fig. 17's windowObservation does.
	sec, mipsSec, freqSec float64
}

// AGSConfig assembles the orchestrator.
type AGSConfig struct {
	// OnCoresTotal is the responsiveness floor (cores kept powered).
	OnCoresTotal int
	// Predictor must be trained (profile the platform first, or reuse the
	// Fig. 16 experiment's model).
	Predictor *FreqPredictor
}

// NewAGS wraps a server with the scheduler.
func NewAGS(srv *server.Server, cfg AGSConfig) (*AGS, error) {
	if srv == nil {
		return nil, fmt.Errorf("core: nil server")
	}
	if cfg.Predictor == nil {
		return nil, fmt.Errorf("core: AGS needs a trained frequency predictor")
	}
	if _, err := cfg.Predictor.Predict(0); err != nil {
		return nil, err
	}
	cores := 0
	for si := 0; si < srv.Sockets(); si++ {
		cores += srv.Chip(si).Cores()
	}
	if cfg.OnCoresTotal <= 0 || cfg.OnCoresTotal > cores {
		cfg.OnCoresTotal = cores
	}
	return &AGS{
		srv:        srv,
		onCores:    cfg.OnCoresTotal,
		rebalancer: NewRebalancer(cfg.OnCoresTotal, false),
		predictor:  cfg.Predictor,
		quantumSec: qos.DefaultConfig().WindowSec,
		events:     NewEventLog(256),
	}, nil
}

// SubmitBatch places a batch job under the loadline-borrowing policy
// (balanced across sockets unless the workload is sharing-heavy, in which
// case it stays on the least-loaded socket).
func (a *AGS) SubmitBatch(id string, d workload.Descriptor, threads int, workGInst float64) (*server.Job, error) {
	placements, err := a.placeBatch(d, threads)
	if err != nil {
		return nil, err
	}
	j, err := a.srv.Submit(id, d, placements, workGInst)
	if err != nil {
		return nil, err
	}
	a.events.Record(Event{AtSec: a.clockSec, Kind: EventPlace, Job: id,
		Detail: fmt.Sprintf("%d threads of %s across %d sockets", threads, d.Name, len(j.Sockets()))})
	a.srv.GateUnloadedCores(a.onCores, false)
	return j, nil
}

// SubmitCritical places a latency-sensitive application on a dedicated core
// and arms the Fig. 18 protection loop for it.
func (a *AGS) SubmitCritical(id string, d workload.Descriptor, spec AppSpec, qcfg qos.Config, seed uint64) (*server.Job, error) {
	placements, err := a.placeBatch(d, 1)
	if err != nil {
		return nil, err
	}
	j, err := a.srv.Submit(id, d, placements, 1e9)
	if err != nil {
		return nil, err
	}
	mapper, err := NewAdaptiveMapper(spec, a.predictor)
	if err != nil {
		a.srv.Remove(j)
		return nil, err
	}
	a.critical = append(a.critical, &protectedApp{
		id:      id,
		job:     j,
		mapper:  mapper,
		tracker: qos.NewTracker(qcfg, rng.New(seed, "ags/"+id)),
		socket:  placements[0].Socket,
		core:    placements[0].Core,
	})
	a.events.Record(Event{AtSec: a.clockSec, Kind: EventPlace, Job: id,
		Detail: fmt.Sprintf("critical %s on P%d core %d, target p90 %.2fs",
			d.Name, placements[0].Socket, placements[0].Core, spec.QoSTarget)})
	a.srv.GateUnloadedCores(a.onCores, false)
	return j, nil
}

// placeBatch finds free cores under the borrowing policy given current
// occupancy.
func (a *AGS) placeBatch(d workload.Descriptor, threads int) ([]server.Placement, error) {
	ps, ok := server.PlaceOnFree(a.srv.FreeCores(nil), threads, !ShouldBorrow(d))
	if !ok {
		return nil, fmt.Errorf("core: need %d free cores", threads)
	}
	return ps, nil
}

// QoSReport is the per-quantum outcome for one critical application.
type QoSReport struct {
	ID            string
	P90Sec        float64
	Violated      bool
	ViolationRate float64
	// Alert is non-empty when the mapper wants a colocation change; the
	// embedding scheduler decides what to evict (the AGS layer cannot kill
	// arbitrary batch jobs on its own authority).
	Alert string
}

// Step advances the server and the protection loops by dtSec, returning any
// QoS reports that completed this step. Each quantum is scored on the
// critical core's time-weighted mean throughput and clock over the
// quantum, not on the last step's.
func (a *AGS) Step(dtSec float64) []QoSReport {
	a.clockSec += dtSec
	a.srv.Step(dtSec)
	if a.rebalancer.Tick(a.srv, dtSec) {
		a.events.Record(Event{AtSec: a.clockSec, Kind: EventMigrate,
			Detail: fmt.Sprintf("rebalanced toward socket balance (migration #%d)", a.rebalancer.Migrations())})
	}

	for _, app := range a.critical {
		ch := a.srv.Chip(app.socket)
		app.sec += dtSec
		app.mipsSec += float64(ch.CoreMIPS(app.core)) * dtSec
		app.freqSec += float64(ch.CoreFreq(app.core)) * dtSec
	}
	a.sinceSec += dtSec
	if a.sinceSec < a.quantumSec {
		return nil
	}
	a.sinceSec = 0

	var reports []QoSReport
	for _, app := range a.critical {
		own := units.MIPS(app.mipsSec / app.sec)
		freq := units.Megahertz(app.freqSec / app.sec)
		app.sec, app.mipsSec, app.freqSec = 0, 0, 0
		if !(own > 0) {
			continue // app idle this quantum
		}
		res := app.tracker.RunWindow(own)
		decision := app.mapper.Tick(Observation{
			QoSMetric: res.P90Sec,
			Violated:  res.Violated,
			Freq:      freq,
			OwnMIPS:   own,
		}, a.candidates(app))
		rep := QoSReport{
			ID:            app.id,
			P90Sec:        res.P90Sec,
			Violated:      res.Violated,
			ViolationRate: app.mapper.ViolationRate(),
		}
		if res.Violated {
			a.events.Record(Event{AtSec: a.clockSec, Kind: EventQoSViolation, Job: app.id,
				Detail: fmt.Sprintf("window p90 %.3fs (rate %.0f%%)", res.P90Sec, app.mapper.ViolationRate()*100)})
		}
		if decision.Swap {
			rep.Alert = decision.Reason
			a.events.Record(Event{AtSec: a.clockSec, Kind: EventSwapAdvice, Job: app.id,
				Detail: decision.Reason})
		}
		reports = append(reports, rep)
	}
	return reports
}

// candidates enumerates the batch jobs sharing the critical app's socket as
// replaceable co-runners.
func (a *AGS) candidates(app *protectedApp) []Candidate {
	var out []Candidate
	for _, j := range a.srv.Jobs() {
		if j == app.job {
			continue
		}
		var mips units.MIPS
		shares := false
		for _, p := range j.Placements {
			if p.Socket == app.socket {
				shares = true
				mips += a.srv.Chip(p.Socket).CoreMIPS(p.Core)
			}
		}
		if shares {
			out = append(out, Candidate{
				Name:         j.ID,
				MIPS:         mips,
				BandwidthGBs: j.Desc.BandwidthGBs(mips),
			})
		}
	}
	return out
}

// Server exposes the managed server.
func (a *AGS) Server() *server.Server { return a.srv }

// Rebalancer exposes the runtime borrowing loop (for statistics).
func (a *AGS) Rebalancer() *Rebalancer { return a.rebalancer }

// Events exposes the scheduler's decision log.
func (a *AGS) Events() *EventLog { return a.events }
