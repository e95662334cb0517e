package chip

import (
	"testing"

	"agsim/internal/firmware"
)

// settledBenchChip returns an 8-core chip with raytrace on every core,
// settled in mode m.
func settledBenchChip(m firmware.Mode) *Chip {
	c := MustNew(DefaultConfig("bench", 1))
	placeN(c, "raytrace", 8)
	c.SetMode(m)
	c.Settle(1)
	return c
}

// BenchmarkFastForward times the frozen-span layer the sampled lane's
// fast-forwards run on: one op is a 9 s FastForward of a settled 8-core
// chip (281 frozen ticks), reported per simulated second and per frozen
// tick. Static and Overclock ticks are decided, so after the first each
// costs only its float sums; the settled Undervolt chip holds, so its
// ticks cost those sums and one uniform each.
func BenchmarkFastForward(b *testing.B) {
	const span = 9.0
	for _, m := range []firmware.Mode{firmware.Undervolt, firmware.Overclock, firmware.Static} {
		b.Run(m.String(), func(b *testing.B) {
			c := settledBenchChip(m)
			if h := c.SampleHint(span); h < span {
				b.Fatalf("sample hint %v s is shorter than the %v s span", h, span)
			}
			ticks := c.Controller().Ticks()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.FastForward(span)
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/(span*float64(b.N)), "ns/sim_s")
			b.ReportMetric(ns/float64(c.Controller().Ticks()-ticks), "ns/frozen_tick")
		})
	}
}

// BenchmarkFrozenReadModel times one rebuild of the frozen read model at
// the operating point an 8-core Undervolt chip settles to — what a
// fast-forward pays at its start and after every frozen rail command.
func BenchmarkFrozenReadModel(b *testing.B) {
	c := settledBenchChip(firmware.Undervolt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.refreshFrozenReadCache()
	}
}
