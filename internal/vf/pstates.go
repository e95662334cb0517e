package vf

import (
	"fmt"

	"agsim/internal/units"
)

// PState is one DVFS operating point: a frequency and the static-guardband
// supply voltage shipped for it. Fig. 6a marks these points along the
// voltage sweep ("DVFS Operating Points"); they are what a conventional
// governor switches between when adaptive guardbanding is unavailable.
type PState struct {
	Freq units.Megahertz
	Volt units.Millivolt
}

// DVFSTable returns n operating points spanning [FMin, FNom], each
// provisioned with the full static guardband above the circuit requirement
// (vendors hold the worst-case margin at every point, which is exactly the
// waste adaptive guardbanding reclaims). Index 0 is the slowest point,
// index n-1 the nominal one.
func (l *Law) DVFSTable(n int) []PState {
	if n < 2 {
		panic(fmt.Sprintf("vf: DVFS table needs at least 2 points, got %d", n))
	}
	gb := l.GuardbandMV()
	table := make([]PState, n)
	for i := range table {
		f := l.FMin + units.Megahertz(float64(i)/float64(n-1)*float64(l.FNom-l.FMin))
		table[i] = PState{Freq: f, Volt: l.VReq(f) + gb}
	}
	return table
}
