package cluster_test

import (
	"fmt"

	"agsim/internal/cluster"
	"agsim/internal/server"
	"agsim/internal/workload"
)

// Example shows the two-level policy: jobs consolidate onto as few nodes as
// possible (the rest stay suspended), and spread across sockets within each
// powered node.
func Example() {
	c := cluster.MustNew(3, server.DefaultConfig(5))

	n1, _ := c.Submit("a", workload.MustGet("raytrace"), 4, 1e6)
	n2, _ := c.Submit("b", workload.MustGet("swaptions"), 4, 1e6)
	fmt.Printf("jobs landed on nodes %d and %d\n", n1, n2)
	fmt.Printf("powered nodes: %d of %d\n", c.PoweredNodes(), c.Nodes())

	srv := c.Node(n1).Server()
	fmt.Printf("node %d sockets: %d and %d active cores\n",
		n1, srv.Chip(0).ActiveCores(), srv.Chip(1).ActiveCores())
	// Output:
	// jobs landed on nodes 0 and 0
	// powered nodes: 1 of 3
	// node 0 sockets: 4 and 4 active cores
}
