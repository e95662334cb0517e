package cluster

import (
	"math"
	"testing"

	"agsim/internal/firmware"
	"agsim/internal/workload"
)

func traceConfig() TraceConfig {
	return TraceConfig{
		ArrivalPerSec: 1.5,
		Mix: []MixEntry{
			{Bench: "coremark", Threads: 2, Weight: 2, WorkGInst: 10},
			{Bench: "mcf", Threads: 4, Weight: 1, WorkGInst: 2},
		},
		Seed: 17,
	}
}

func TestTraceConfigValidate(t *testing.T) {
	if err := traceConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := traceConfig()
	bad.ArrivalPerSec = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected rate error")
	}
	bad = traceConfig()
	bad.Mix = nil
	if err := bad.Validate(); err == nil {
		t.Error("expected mix error")
	}
	bad = traceConfig()
	bad.Mix[0].Bench = "doom"
	if err := bad.Validate(); err == nil {
		t.Error("expected workload error")
	}
	bad = traceConfig()
	bad.Mix[0].Threads = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected thread error")
	}
}

func TestPlayerRunsTrace(t *testing.T) {
	c := MustNew(2, DefaultNodeConfig(19))
	c.SetMode(firmware.Static)
	p, err := NewPlayer(c, traceConfig())
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Run(20)
	if stats.Submitted == 0 {
		t.Fatal("no arrivals in 20 s at 1.5/s")
	}
	if stats.Completed == 0 {
		t.Error("no job completed")
	}
	if stats.AvgPowerW <= 0 {
		t.Error("no power recorded")
	}
	if stats.AvgPoweredNodes <= 0 || stats.AvgPoweredNodes > 2 {
		t.Errorf("powered nodes = %v", stats.AvgPoweredNodes)
	}
	// Conservation: everything submitted is completed, live, or queued.
	live := c.Jobs()
	if stats.Completed+live+stats.Queued != stats.Submitted {
		t.Errorf("job accounting broken: %d completed + %d live + %d queued != %d submitted",
			stats.Completed, live, stats.Queued, stats.Submitted)
	}
}

func TestPlayerQueuesUnderOverload(t *testing.T) {
	c := MustNew(1, DefaultNodeConfig(23))
	c.SetMode(firmware.Static)
	cfg := traceConfig()
	cfg.ArrivalPerSec = 20
	cfg.Mix = []MixEntry{{Bench: "mcf", Threads: 8, Weight: 1, WorkGInst: 1e5}}
	p, err := NewPlayer(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Run(2)
	if stats.MaxQueueDepth == 0 {
		t.Error("overload never queued")
	}
	if stats.Queued == 0 {
		t.Error("backlog should remain under sustained overload")
	}
}

func TestPlayerPowerTracksLoad(t *testing.T) {
	// A light trace must average less power than a heavy one on the same
	// cluster shape — energy proportionality end to end.
	run := func(rate float64) float64 {
		c := MustNew(2, DefaultNodeConfig(29))
		c.SetMode(firmware.Undervolt)
		cfg := traceConfig()
		cfg.ArrivalPerSec = rate
		p, err := NewPlayer(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p.Run(15).AvgPowerW
	}
	light := run(0.2)
	heavy := run(3)
	if light >= heavy {
		t.Errorf("power not proportional to load: light %v vs heavy %v", light, heavy)
	}
}

// newPinnedPlayer builds a trace player on a two-node cluster whose node 0
// is held on from time zero by an endless job, so its server clock counts
// every step the player plays.
func newPinnedPlayer(t *testing.T) (*Player, *Cluster) {
	t.Helper()
	c := MustNew(2, DefaultNodeConfig(19))
	c.SetMode(firmware.Static)
	if _, err := c.Submit("pin", workload.MustGet("coremark"), 2, 1e9); err != nil {
		t.Fatal(err)
	}
	p, err := NewPlayer(c, traceConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p, c
}

// TestPlayerRunRoundsToWholeSteps holds Run to the rounded step count: a
// span that is not a float multiple of the step plays every step it
// names, and Seconds reports the span actually played.
func TestPlayerRunRoundsToWholeSteps(t *testing.T) {
	p, c := newPinnedPlayer(t)
	stats := p.Run(0.7)
	if got := c.Node(0).Server().Time(); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("Run(0.7) advanced node time %v s, want 0.7", got)
	}
	if math.Abs(stats.Seconds-0.7) > 1e-12 {
		t.Errorf("Run(0.7) reports %v s played", stats.Seconds)
	}
}

// TestPlayerSubStepRunKeepsAverages: a span shorter than half a step
// plays nothing and must not turn the averages into NaN.
func TestPlayerSubStepRunKeepsAverages(t *testing.T) {
	p, _ := newPinnedPlayer(t)
	stats := p.Run(0.0004)
	if stats.Seconds != 0 || stats.AvgPowerW != 0 || stats.AvgPoweredNodes != 0 {
		t.Errorf("Run(0.0004) on a fresh player = %+v, want zero span and averages", stats)
	}
	before := p.Run(0.05)
	after := p.Run(0.0004)
	if after != before {
		t.Errorf("a sub-step Run changed the statistics: %+v, then %+v", before, after)
	}
}

// TestPlayerSplitRunMatchesOneRun: statistics accumulate across Run calls,
// so Run(1); Run(1) reports exactly what Run(2) does.
func TestPlayerSplitRunMatchesOneRun(t *testing.T) {
	split, _ := newPinnedPlayer(t)
	split.Run(1)
	got := split.Run(1)
	whole, _ := newPinnedPlayer(t)
	want := whole.Run(2)
	if got != want {
		t.Errorf("Run(1); Run(1) = %+v\nRun(2)         = %+v", got, want)
	}
}
