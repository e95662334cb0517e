package experiments

import (
	"agsim/internal/arena"
	"agsim/internal/chip"
	"agsim/internal/cluster"
	"agsim/internal/server"
)

// The drivers in this package build hundreds of chips, servers and
// clusters per sweep — one per sweep point — that differ only in tag,
// seed and recorder shard. Each kind pools in a process-wide arena keyed
// by configuration shape; sweep points acquire, Reset, run, and release.
// Determinism holds at any worker count because Reset rewinds a pooled
// object to bit-exact fresh-construction state: which worker reuses which
// object cannot matter when every object is indistinguishable from new.
//
// Release happens only on the normal return path of a driver helper. A
// panicking run leaks its object rather than returning possibly
// half-mutated state to the pool — the safe failure mode.
var (
	chipArena    = arena.New[*chip.Chip]()
	serverArena  = arena.New[*server.Server]()
	clusterArena = arena.New[*cluster.Cluster]()
)

// acquireChip returns a chip for cfg: a pooled one rewound to cfg's
// identity when the shape matches, a fresh construction otherwise.
func acquireChip(cfg chip.Config) *chip.Chip {
	if c, ok := chipArena.Get(cfg.ShapeKey()); ok {
		c.Reset(cfg.Name, cfg.Seed, cfg.Recorder)
		return c
	}
	return chip.MustNew(cfg)
}

// releaseChip returns a chip to the arena for the next sweep point of the
// same shape. The caller must not use c afterwards.
func releaseChip(c *chip.Chip) { chipArena.Put(c.ShapeKey(), c) }

// acquireServer is acquireChip's server-level counterpart.
func acquireServer(cfg server.Config) *server.Server {
	if s, ok := serverArena.Get(cfg.ShapeKey()); ok {
		s.Reset(cfg.Seed, cfg.Recorder)
		return s
	}
	return server.MustNew(cfg)
}

// releaseServer returns a server to the arena.
func releaseServer(s *server.Server) { serverArena.Put(s.ShapeKey(), s) }

// acquireCluster is acquireChip's cluster-level counterpart: n nodes,
// each a server built from cfg; n is part of the shape.
func acquireCluster(n int, cfg server.Config) *cluster.Cluster {
	if c, ok := clusterArena.Get(cluster.ShapeKey(n, cfg)); ok {
		c.Reset(cfg)
		return c
	}
	return cluster.MustNew(n, cfg)
}

// releaseCluster returns a cluster to the arena.
func releaseCluster(c *cluster.Cluster) { clusterArena.Put(c.ShapeKey(), c) }
