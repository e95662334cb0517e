// Cluster scheduling: the paper's §5.1.1 two-level policy — consolidate
// jobs onto as few servers as possible (whole suspended servers save their
// platform power), then spread threads across each powered server's sockets
// with loadline borrowing.
//
//	go run ./examples/cluster
package main

import (
	"fmt"

	"agsim/internal/cluster"
	"agsim/internal/server"
	"agsim/internal/workload"
)

func main() {
	c := cluster.MustNew(4, server.DefaultConfig(99))

	jobs := []struct {
		id      string
		bench   string
		threads int
	}{
		{"web-frontend", "websearch", 4},
		{"analytics", "radix", 8},
		{"render", "raytrace", 4},
		{"solver", "lu_ncb", 6}, // sharing-heavy: stays on one socket
	}
	for _, j := range jobs {
		node, err := c.Submit(j.id, workload.MustGet(j.bench), j.threads, 1e6)
		if err != nil {
			panic(err)
		}
		fmt.Printf("submitted %-13s (%d threads of %-10s) -> node %d\n",
			j.id, j.threads, j.bench, node)
	}

	c.Settle(3)
	fmt.Printf("\npowered nodes: %d of %d; cluster power %.1f W\n",
		c.PoweredNodes(), c.Nodes(), float64(c.TotalPower()))
	for i := 0; i < c.Nodes(); i++ {
		n := c.Node(i)
		if srv := n.Server(); srv != nil {
			fmt.Printf("node %d: sockets at %d/%d active cores, %5.1f W + platform\n",
				i, srv.Chip(0).ActiveCores(), srv.Chip(1).ActiveCores(),
				float64(srv.TotalPower()))
		} else {
			fmt.Printf("node %d: suspended\n", i)
		}
	}

	// Release the analytics job; its node stays up only if other jobs
	// share it, otherwise it suspends and the cluster draw falls by the
	// whole platform overhead.
	before := float64(c.TotalPower())
	if err := c.Release("analytics"); err != nil {
		panic(err)
	}
	c.Settle(1)
	fmt.Printf("\nafter releasing analytics: powered nodes %d, power %.1f W (was %.1f)\n",
		c.PoweredNodes(), float64(c.TotalPower()), before)
}
