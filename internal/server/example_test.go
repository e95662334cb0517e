package server_test

import (
	"fmt"

	"agsim/internal/firmware"
	"agsim/internal/server"
	"agsim/internal/workload"
)

// Example shows the basic server workflow: submit a job under a schedule,
// pick a guardband mode, run, and read the power sensors.
func Example() {
	srv := server.MustNew(server.DefaultConfig(7))
	d := workload.MustGet("raytrace")

	// Loadline borrowing: spread eight threads across both sockets.
	ps, _ := server.PlaceOnFree(srv.FreeCores(nil), 8, false)
	srv.MustSubmit("job", d, ps, 1e9)
	srv.SetMode(firmware.Undervolt)
	srv.Settle(3)

	fmt.Printf("sockets loaded: %d and %d cores\n",
		srv.Chip(0).ActiveCores(), srv.Chip(1).ActiveCores())
	fmt.Printf("both sockets undervolted: %v\n",
		srv.Chip(0).UndervoltMV() > 0 && srv.Chip(1).UndervoltMV() > 0)
	// Output:
	// sockets loaded: 4 and 4 cores
	// both sockets undervolted: true
}

// ExampleServer_Migrate rebalances a running job without losing progress —
// the taskset emulation of the paper's §5.1.2.
func ExampleServer_Migrate() {
	srv := server.MustNew(server.DefaultConfig(7))
	d := workload.MustGet("swaptions")
	// Consolidation: keep the job together on socket 0.
	ps, _ := server.PlaceOnFree(srv.FreeCores(nil), 4, true)
	j := srv.MustSubmit("job", d, ps, 1e9)
	srv.SetMode(firmware.Undervolt)
	srv.Settle(1)

	// Re-place it over its own cores, spread across the sockets.
	ps, _ = server.PlaceOnFree(srv.FreeCores(j), 4, false)
	if err := srv.Migrate(j, ps); err != nil {
		panic(err)
	}
	fmt.Printf("after migration: %d + %d cores\n",
		srv.Chip(0).ActiveCores(), srv.Chip(1).ActiveCores())
	// Output:
	// after migration: 2 + 2 cores
}
