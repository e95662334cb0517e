package amester

import (
	"fmt"

	"agsim/internal/chip"
	"agsim/internal/server"
)

// Probe is one named sensor read.
type Probe struct {
	Name string
	Read func() float64
}

// ChipProbes returns the standard probe set for one chip: power, voltage,
// undervolt, frequency, throughput, chip-wide minimum CPM sample and
// temperature.
func ChipProbes(prefix string, c *chip.Chip) []Probe {
	return []Probe{
		{prefix + "power_w", func() float64 { return float64(c.ChipPower()) }},
		{prefix + "rail_mv", func() float64 { return float64(c.RailVoltage()) }},
		{prefix + "setpoint_mv", func() float64 { return float64(c.SetPoint()) }},
		{prefix + "undervolt_mv", func() float64 { return float64(c.UndervoltMV()) }},
		{prefix + "current_a", func() float64 { return float64(c.Current()) }},
		{prefix + "freq0_mhz", func() float64 { return float64(c.CoreFreq(0)) }},
		{prefix + "mips", func() float64 { return float64(c.TotalMIPS()) }},
		{prefix + "min_cpm", func() float64 { return float64(c.MinCPMSample()) }},
		{prefix + "temp_c", func() float64 { return float64(c.Temperature()) }},
	}
}

// ServerProbes returns the standard probe set for a whole server: total
// power plus per-socket chip probes.
func ServerProbes(s *server.Server) []Probe {
	probes := []Probe{
		{"total_power_w", func() float64 { return float64(s.TotalPower()) }},
	}
	for i := 0; i < s.Sockets(); i++ {
		probes = append(probes, ChipProbes(fmt.Sprintf("p%d_", i), s.Chip(i))...)
	}
	return probes
}
