package core

import (
	"math"
	"testing"

	"agsim/internal/firmware"
	"agsim/internal/power"
	"agsim/internal/qos"
	"agsim/internal/rng"
	"agsim/internal/server"
	"agsim/internal/units"
	"agsim/internal/workload"
)

func newAGS(t *testing.T) *AGS {
	t.Helper()
	srv := server.MustNew(server.DefaultConfig(41))
	srv.SetMode(firmware.Undervolt)
	a, err := NewAGS(srv, AGSConfig{OnCoresTotal: 16, Predictor: trainedPredictor(t)})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAGSValidation(t *testing.T) {
	srv := server.MustNew(server.DefaultConfig(1))
	if _, err := NewAGS(nil, AGSConfig{Predictor: &FreqPredictor{}}); err == nil {
		t.Error("expected error for nil server")
	}
	if _, err := NewAGS(srv, AGSConfig{}); err == nil {
		t.Error("expected error for nil predictor")
	}
	var untrained FreqPredictor
	if _, err := NewAGS(srv, AGSConfig{Predictor: &untrained}); err == nil {
		t.Error("expected error for untrained predictor")
	}
}

func TestSubmitBatchBalances(t *testing.T) {
	a := newAGS(t)
	if _, err := a.SubmitBatch("b", workload.MustGet("raytrace"), 6, 1e9); err != nil {
		t.Fatal(err)
	}
	srv := a.Server()
	a0, a1 := srv.Chip(0).ActiveCores(), srv.Chip(1).ActiveCores()
	if d := a0 - a1; d < -1 || d > 1 {
		t.Errorf("batch not balanced: %d vs %d", a0, a1)
	}
}

func TestSubmitBatchKeepsSharingHeavyTogether(t *testing.T) {
	a := newAGS(t)
	if _, err := a.SubmitBatch("b", workload.MustGet("radiosity"), 5, 1e9); err != nil {
		t.Fatal(err)
	}
	srv := a.Server()
	if srv.Chip(0).ActiveCores() != 5 && srv.Chip(1).ActiveCores() != 5 {
		t.Error("sharing-heavy batch split across sockets")
	}
}

func TestSubmitBatchCapacity(t *testing.T) {
	a := newAGS(t)
	if _, err := a.SubmitBatch("b", workload.MustGet("mcf"), 16, 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SubmitBatch("c", workload.MustGet("mcf"), 1, 1e9); err == nil {
		t.Error("expected capacity error")
	}
}

// TestSubmitBatchKeepsOnCoresPowered: with eight cores kept on, a
// four-thread batch spreads 2+2 and the server's gating rule powers two
// idle cores beside it on each socket, gating the other eight; the
// schedule runs.
func TestSubmitBatchKeepsOnCoresPowered(t *testing.T) {
	srv := server.MustNew(server.DefaultConfig(21))
	a, err := NewAGS(srv, AGSConfig{OnCoresTotal: 8, Predictor: trainedPredictor(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SubmitBatch("b", workload.MustGet("raytrace"), 4, 1e9); err != nil {
		t.Fatal(err)
	}
	for si := 0; si < 2; si++ {
		c, on := srv.Chip(si), 0
		for i := 0; i < c.Cores(); i++ {
			if c.Core(i).State() != power.Gated {
				on++
			}
		}
		if c.ActiveCores() != 2 || on != 4 {
			t.Errorf("socket %d: %d loaded, %d powered; want 2 and 4", si, c.ActiveCores(), on)
		}
	}
	srv.SetMode(firmware.Undervolt)
	srv.Settle(1)
	if srv.TotalPower() <= 0 {
		t.Error("no power draw")
	}
}

// TestStepScoresQuantumOnMeanThroughput: the quantum's QoS window is run
// on the critical core's time-weighted mean MIPS over the quantum, so a
// throughput change partway through shows in the report as the mean, not
// the last step's value.
func TestStepScoresQuantumOnMeanThroughput(t *testing.T) {
	a := newAGS(t)
	qcfg := qos.DefaultConfig()
	const seed = 53
	if _, err := a.SubmitCritical("web", workload.MustGet("websearch"), AppSpec{
		Name: "web", Critical: true, QoSTarget: qcfg.TargetP90Sec,
	}, qcfg, seed); err != nil {
		t.Fatal(err)
	}
	app := a.critical[0]
	ch := a.Server().Chip(app.socket)
	const dt = 0.001
	var mipsSec, sec float64
	var last units.MIPS
	var reports []QoSReport
	for step := 0; reports == nil; step++ {
		if step == int(qcfg.WindowSec/dt)/2 {
			// Halfway through the quantum, a co-runner fills the rest of
			// the server and the critical core slows.
			if _, err := a.SubmitBatch("hog", workload.MustGet("lbm"), 15, 1e9); err != nil {
				t.Fatal(err)
			}
		}
		reports = a.Step(dt)
		last = ch.CoreMIPS(app.core)
		mipsSec += float64(last) * dt
		sec += dt
	}
	mean := units.MIPS(mipsSec / sec)
	if math.Abs(float64(mean-last)) < 1 {
		t.Fatalf("throughput did not move within the quantum: mean %v, last %v", mean, last)
	}
	window := func(mips units.MIPS) float64 {
		return qos.NewTracker(qcfg, rng.New(seed, "ags/web")).RunWindow(mips).P90Sec
	}
	if got, want := reports[0].P90Sec, window(mean); got != want {
		t.Errorf("quantum p90 %v, want %v from the mean %v (the last step's %v gives %v)",
			got, want, mean, last, window(last))
	}
}

func TestCriticalAppProtection(t *testing.T) {
	a := newAGS(t)
	cfg := qos.DefaultConfig()
	if _, err := a.SubmitCritical("web", workload.MustGet("websearch"), AppSpec{
		Name: "web", Critical: true, QoSTarget: cfg.TargetP90Sec,
	}, cfg, 41); err != nil {
		t.Fatal(err)
	}
	// A hostile co-runner fills the rest of the machine.
	if _, err := a.SubmitBatch("hog", workload.MustGet("lu_cb"), 15, 1e9); err != nil {
		t.Fatal(err)
	}
	a.Server().Settle(2)
	// Shrink the evidence window so the test needs fewer quanta.
	a.critical[0].mapper.WindowQuanta = 5

	var reports []QoSReport
	alerted := false
	for i := 0; i < 150000; i++ { // up to 150 s: a dozen QoS quanta
		rs := a.Step(0.001)
		reports = append(reports, rs...)
		for _, r := range rs {
			if r.Alert != "" {
				alerted = true
			}
		}
		if alerted {
			break
		}
	}
	if len(reports) == 0 {
		t.Fatal("no QoS reports produced")
	}
	for _, r := range reports {
		if r.ID != "web" {
			t.Errorf("report for unknown app %q", r.ID)
		}
		if r.P90Sec <= 0 {
			t.Errorf("empty p90 in %+v", r)
		}
	}
	if !alerted {
		t.Error("mapper never alerted despite hostile colocation")
	}
}

// TestStepReportsInSubmissionOrder: with several protected applications,
// every quantum's reports, and the decision-log entries each quantum
// records, follow the order the applications were submitted in.
func TestStepReportsInSubmissionOrder(t *testing.T) {
	a := newAGS(t)
	cfg := qos.DefaultConfig()
	ids := []string{"web-a", "web-b", "web-c", "web-d"}
	rank := map[string]int{}
	for i, id := range ids {
		rank[id] = i
		if _, err := a.SubmitCritical(id, workload.MustGet("websearch"), AppSpec{
			Name: id, Critical: true, QoSTarget: cfg.TargetP90Sec,
		}, cfg, uint64(61+i)); err != nil {
			t.Fatal(err)
		}
	}
	// A hostile co-runner makes the quanta log violations and advice too.
	if _, err := a.SubmitBatch("hog", workload.MustGet("lu_cb"), 8, 1e9); err != nil {
		t.Fatal(err)
	}
	for quanta := 0; quanta < 10; {
		rs := a.Step(0.001)
		if rs == nil {
			continue
		}
		quanta++
		if len(rs) != len(ids) {
			t.Fatalf("quantum %d: %d reports, want %d", quanta, len(rs), len(ids))
		}
		for i, r := range rs {
			if r.ID != ids[i] {
				t.Errorf("quantum %d: report %d is %q, want %q", quanta, i, r.ID, ids[i])
			}
		}
	}
	logged := 0
	var prev Event
	for _, e := range a.Events().Events() {
		if e.Kind != EventQoSViolation && e.Kind != EventSwapAdvice {
			continue
		}
		logged++
		if logged > 1 && e.AtSec == prev.AtSec && rank[e.Job] < rank[prev.Job] {
			t.Errorf("at %.3f s %s for %q logged after %s for %q", e.AtSec, e.Kind, e.Job, prev.Kind, prev.Job)
		}
		prev = e
	}
	if logged == 0 {
		t.Error("no quantum logged a violation or advice; the log order is not exercised")
	}
}

func TestAGSQuantumDefaults(t *testing.T) {
	srv := server.MustNew(server.DefaultConfig(43))
	a, err := NewAGS(srv, AGSConfig{Predictor: trainedPredictor(t)})
	if err != nil {
		t.Fatal(err)
	}
	if a.quantumSec != qos.DefaultConfig().WindowSec {
		t.Errorf("quantum = %v", a.quantumSec)
	}
	if a.onCores != 16 {
		t.Errorf("default on-cores = %d", a.onCores)
	}
}

func TestCandidatesSeeSocketMates(t *testing.T) {
	a := newAGS(t)
	cfg := qos.DefaultConfig()
	if _, err := a.SubmitCritical("web", workload.MustGet("websearch"), AppSpec{
		Name: "web", Critical: true, QoSTarget: cfg.TargetP90Sec,
	}, cfg, 47); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SubmitBatch("mate", workload.MustGet("coremark"), 4, 1e9); err != nil {
		t.Fatal(err)
	}
	a.Server().Settle(1)
	app := a.critical[0]
	cands := a.candidates(app)
	found := false
	for _, c := range cands {
		if c.Name == "mate" {
			found = true
			if c.MIPS <= 0 {
				t.Errorf("socket-mate MIPS = %v", c.MIPS)
			}
		}
	}
	if !found {
		t.Errorf("socket-mate not enumerated: %v", cands)
	}
}

func TestEventLogRecordsDecisions(t *testing.T) {
	a := newAGS(t)
	if _, err := a.SubmitBatch("b", workload.MustGet("raytrace"), 6, 1e9); err != nil {
		t.Fatal(err)
	}
	evs := a.Events().Events()
	if len(evs) != 1 || evs[0].Kind != EventPlace || evs[0].Job != "b" {
		t.Fatalf("events = %v", evs)
	}
	if a.Events().Total() != 1 {
		t.Errorf("Total = %d", a.Events().Total())
	}
}

func TestEventLogRing(t *testing.T) {
	l := NewEventLog(3)
	for i := 0; i < 5; i++ {
		l.Record(Event{AtSec: float64(i), Kind: EventMigrate})
	}
	evs := l.Events()
	if l.Len() != 3 || l.Total() != 5 {
		t.Fatalf("Len=%d Total=%d", l.Len(), l.Total())
	}
	if evs[0].AtSec != 2 || evs[2].AtSec != 4 {
		t.Errorf("ring order wrong: %v", evs)
	}
	if l.Dump() == "" {
		t.Error("empty dump")
	}
}

func TestNewEventLogPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEventLog(0)
}
