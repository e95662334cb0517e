package pdn

import (
	"testing"

	"agsim/internal/units"
)

// BenchmarkNewMesh prices the one-off setup the constant-time step buys:
// Laplacian assembly, sparse Cholesky, and Cores+1 unit-injection solves.
// Chip construction draws the kernel from SharedMesh's cache, so it pays
// this once per topology.
func BenchmarkNewMesh(b *testing.B) {
	mp := DefaultMeshParams()
	for i := 0; i < b.N; i++ {
		if _, err := NewMesh(mp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedMeshHit prices what mesh-lane chip construction pays
// instead of BenchmarkNewMesh: one lookup in the shared kernel cache.
func BenchmarkSharedMeshHit(b *testing.B) {
	mp := DefaultMeshParams()
	if _, err := SharedMesh(mp); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SharedMesh(mp); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkDrops []units.Millivolt

// BenchmarkDropsInto times the per-step delivery solve of each network: a
// chip's eight core currents and its uncore current in, the eight core
// drops out into the chip's scratch slice. The plane is the default
// lane's lumped network; the mesh applies the precomputed transfer
// matrix of the mesh lane.
func BenchmarkDropsInto(b *testing.B) {
	plane, err := New(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	mesh, err := NewMesh(DefaultMeshParams())
	if err != nil {
		b.Fatal(err)
	}
	currents := []units.Ampere{9.5, 8.1, 11.2, 0.4, 9.9, 7.3, 0.4, 10.6}
	for _, bc := range []struct {
		name string
		net  Network
	}{{"plane", plane}, {"mesh", mesh}} {
		b.Run(bc.name, func(b *testing.B) {
			dst := make([]units.Millivolt, len(currents))
			b.ReportAllocs()
			for b.Loop() {
				sinkDrops = bc.net.DropsInto(dst, currents, 14)
			}
		})
	}
}
