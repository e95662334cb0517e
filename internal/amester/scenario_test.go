package amester

import "testing"

// TestBuildRefusesBadScenarios: a scenario from outside — flags or a
// snapshot header — with an unknown workload or mode, or a thread count
// outside [1, sockets × cores], is an error from Build, never a panic or
// a placement list sized by the bad count.
func TestBuildRefusesBadScenarios(t *testing.T) {
	good := Scenario{Workload: "raytrace", Threads: 8, Mode: "undervolt", Borrow: true, Seed: 1}
	if _, _, err := good.Build(); err != nil {
		t.Fatalf("good scenario: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Scenario)
	}{
		{"threads -3", func(sc *Scenario) { sc.Threads = -3 }},
		{"threads 0", func(sc *Scenario) { sc.Threads = 0 }},
		{"threads 17", func(sc *Scenario) { sc.Threads = 17 }},
		{"threads 1<<40", func(sc *Scenario) { sc.Threads = 1 << 40 }},
		{"threads -3 consolidated", func(sc *Scenario) { sc.Threads, sc.Borrow = -3, false }},
		{"unknown workload", func(sc *Scenario) { sc.Workload = "nope" }},
		{"unknown mode", func(sc *Scenario) { sc.Mode = "turbo" }},
	} {
		sc := good
		tc.edit(&sc)
		if srv, _, err := sc.Build(); err == nil || srv != nil {
			t.Errorf("%s: Build = %v, %v; want an error", tc.name, srv, err)
		}
	}
}

// TestBuildConsolidatedPastOneSocket: a consolidated scenario with more
// threads than one socket holds builds. The job cannot stay on one
// socket, so PlaceOnFree packs socket 0 and puts the rest on socket 1.
func TestBuildConsolidatedPastOneSocket(t *testing.T) {
	sc := Scenario{Workload: "raytrace", Threads: 12, Mode: "undervolt", Borrow: false}
	srv, _, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a0, a1 := srv.Chip(0).ActiveCores(), srv.Chip(1).ActiveCores(); a0 != 8 || a1 != 4 {
		t.Errorf("%d + %d cores loaded, want 8 + 4", a0, a1)
	}
}
