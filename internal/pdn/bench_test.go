package pdn

import "testing"

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
