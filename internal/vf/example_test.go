package vf_test

import (
	"fmt"

	"agsim/internal/vf"
)

// ExampleLaw shows the calibrated POWER7+ voltage-frequency law: the static
// guardband at the nominal point and the boost available at full supply.
func ExampleLaw() {
	law := vf.Default()
	fmt.Printf("V_req(4200 MHz) = %v\n", law.VReq(4200))
	fmt.Printf("static guardband = %v\n", law.GuardbandMV())
	fmt.Printf("F_max(V_nom) = %v\n", law.FMax(law.VNom))
	// Output:
	// V_req(4200 MHz) = 1130.0mV
	// static guardband = 150.0mV
	// F_max(V_nom) = 4620MHz
}

// ExampleLaw_DVFSTable prints the conventional DVFS operating points, each
// carrying the full static guardband.
func ExampleLaw_DVFSTable() {
	law := vf.Default()
	for _, p := range law.DVFSTable(4) {
		fmt.Printf("%v @ %v\n", p.Freq, p.Volt)
	}
	// Output:
	// 2800MHz @ 1090.0mV
	// 3267MHz @ 1153.3mV
	// 3733MHz @ 1216.7mV
	// 4200MHz @ 1280.0mV
}
