// Package health layers watchdog detectors over a merged observation
// log: droop-storm and throttle-residency rates, guardband-margin
// exhaustion, and serving SLO breaches. Detectors are pure functions of
// an obs.Log snapshot — they hold no state and allocate only their result
// slice. They read the log's counters, gauges and histograms and never its
// events: the throttle and exhausted-margin rates come from the
// attribution counters the chip increments on every firmware tick, not
// from whatever tail of KindAttrib records a bounded event ring kept. So
// a run's findings do not depend on the ring size, and they are identical
// at any worker count and on the macro and exact stepping lanes, whose
// counters agree tick for tick and whose clocks agree on the microsecond
// event grid.
//
// Findings only report trouble: a healthy log evaluates to an empty
// slice. Each finding carries the detector, a warn/critical grade, the
// observed value, and the threshold it crossed, and can be converted to
// obs.KindHealth events for trace export via Events.
package health

import (
	"fmt"

	"agsim/internal/obs"
)

// Thresholds are the detector trip points. The zero value is useless;
// start from Default and override.
type Thresholds struct {
	// DroopStormPerSec warns when a source's di/dt event rate exceeds
	// this; 2x the rate is critical. The calibration regime is a few
	// events per second, so a storm means the noise process (or the
	// workload phase driving it) left the regime the guardband was sized
	// for.
	DroopStormPerSec float64
	// ThrottleResidency warns when more than this fraction of a source's
	// guardband decisions stepped the rail back up; 2x is critical. A
	// controller spending most ticks restoring margin is oscillating, not
	// reclaiming guardband.
	ThrottleResidency float64
	// MarginExhaustion warns when more than this fraction of a source's
	// ticks sensed margin below the deadband; 2x is critical. The
	// guardband is overdrawn: the sensed worst CPM sits under the
	// calibration target and load steps eat directly into timing margin.
	MarginExhaustion float64
	// MinTicks gates the rate detectors: a source with fewer firmware
	// ticks than this is never flagged (too little evidence).
	MinTicks int
	// SLOShedFraction warns when a serving node shed more than this
	// fraction of its arrivals; 2x is critical. Any shed at all below the
	// warn line is tolerated as open-loop burst absorption.
	SLOShedFraction float64
	// SLOP99Sec warns when the fleet-wide p99 request latency exceeds
	// this; 2x is critical. Zero disables the latency check.
	SLOP99Sec float64
}

// Default returns the trip points used by the -timeseries lane.
func Default() Thresholds {
	return Thresholds{
		DroopStormPerSec:  50,
		ThrottleResidency: 0.25,
		MarginExhaustion:  0.5,
		MinTicks:          8,
		SLOShedFraction:   0.01,
		SLOP99Sec:         0.25,
	}
}

// Finding is one detector firing.
type Finding struct {
	// Source names the emitter the finding is about ("" for fleet-wide
	// findings such as the merged p99), and SourceIdx is its index into
	// the log's Sources (-1 for fleet-wide).
	Source    string
	SourceIdx int32
	Detector  obs.HealthDetector
	Status    obs.HealthStatus
	// Value is the observation that tripped, Threshold the warn line it
	// crossed (both in the detector's unit: events/s, fractions, seconds).
	Value     float64
	Threshold float64
	// TimeUS stamps the end of the observation span the finding covers.
	TimeUS int64
	Msg    string
}

// grade returns the warn/critical status for a value against a warn
// threshold (critical at or beyond twice the line — inclusive so a
// fraction detector with a 0.5 line can still reach critical at 1.0),
// or HealthOK at or below it.
func grade(v, warn float64) obs.HealthStatus {
	switch {
	case warn <= 0 || v <= warn:
		return obs.HealthOK
	case v >= 2*warn:
		return obs.HealthCritical
	default:
		return obs.HealthWarn
	}
}

// Evaluate runs every detector over the log and returns the findings in
// deterministic order: fleet-wide first, then per-source in the log's
// source order, detectors in declaration order within a source.
func Evaluate(log *obs.Log, th Thresholds) []Finding {
	if log == nil {
		return nil
	}
	var out []Finding
	endUS := endStampUS(log)

	// Fleet-wide p99 SLO: the latency histogram merges across shards, so
	// the percentile is only defined fleet-wide.
	if th.SLOP99Sec > 0 {
		h := &log.Hists[obs.HRequestLatencySec]
		if h.Count > 0 {
			p99 := Quantile(*h, 0.99)
			if st := grade(p99, th.SLOP99Sec); st != obs.HealthOK {
				out = append(out, Finding{
					Source: "", SourceIdx: -1,
					Detector: obs.DetSLOBreach, Status: st,
					Value: p99, Threshold: th.SLOP99Sec, TimeUS: endUS,
					Msg: fmt.Sprintf("fleet p99 latency %.3fs exceeds %.3fs SLO", p99, th.SLOP99Sec),
				})
			}
		}
	}

	for i := range log.Sources {
		src := &log.Sources[i]
		idx := int32(i)

		// Droop storm: event rate over the source's own simulated span,
		// taken on the microsecond grid events are stamped on, so the
		// lanes' float time accumulators, which drift apart by ulps, give
		// one rate.
		if t := float64(obs.StampUS(src.Gauges[obs.GTimeSec])) / 1e6; t > 0 && th.DroopStormPerSec > 0 {
			rate := float64(src.Counters[obs.CDidtEvents]) / t
			if st := grade(rate, th.DroopStormPerSec); st != obs.HealthOK {
				out = append(out, Finding{
					Source: src.Name, SourceIdx: idx,
					Detector: obs.DetDroopStorm, Status: st,
					Value: rate, Threshold: th.DroopStormPerSec, TimeUS: endUS,
					Msg: fmt.Sprintf("%s: %.1f droop events/s over %.2fs", src.Name, rate, t),
				})
			}
		}

		// The rate detectors read the attribution counters the chip keeps
		// at every firmware tick, so they cover the source's whole run on
		// every lane, however much of the event ring survived.
		if ticks := src.Counters[obs.CFirmwareTicks]; th.MinTicks > 0 && ticks >= uint64(th.MinTicks) {
			// Throttle residency: share of guardband decisions that had to
			// step the rail back up.
			frac := float64(src.Counters[obs.CThrottleDecisions]) / float64(ticks)
			if st := grade(frac, th.ThrottleResidency); st != obs.HealthOK {
				out = append(out, Finding{
					Source: src.Name, SourceIdx: idx,
					Detector: obs.DetThrottleResidency, Status: st,
					Value: frac, Threshold: th.ThrottleResidency, TimeUS: endUS,
					Msg: fmt.Sprintf("%s: %.0f%% of %d ticks throttled", src.Name, 100*frac, ticks),
				})
			}
			// Margin exhaustion: share of ticks with no spare margin.
			frac = float64(src.Counters[obs.CExhaustedTicks]) / float64(ticks)
			if st := grade(frac, th.MarginExhaustion); st != obs.HealthOK {
				out = append(out, Finding{
					Source: src.Name, SourceIdx: idx,
					Detector: obs.DetMarginExhaustion, Status: st,
					Value: frac, Threshold: th.MarginExhaustion, TimeUS: endUS,
					Msg: fmt.Sprintf("%s: margin at/below deadband on %.0f%% of %d ticks", src.Name, 100*frac, ticks),
				})
			}
		}

		// Per-node shed: served/dropped counters stay per-source through
		// the merge, so shed localizes to the node even though latency
		// does not.
		served := src.Counters[obs.CRequestsServed]
		dropped := src.Counters[obs.CRequestsDropped]
		if total := served + dropped; total > 0 && th.SLOShedFraction > 0 {
			frac := float64(dropped) / float64(total)
			if st := grade(frac, th.SLOShedFraction); st != obs.HealthOK {
				out = append(out, Finding{
					Source: src.Name, SourceIdx: idx,
					Detector: obs.DetSLOBreach, Status: st,
					Value: frac, Threshold: th.SLOShedFraction, TimeUS: endUS,
					Msg: fmt.Sprintf("%s: shed %d of %d requests (%.2f%%)", src.Name, dropped, total, 100*frac),
				})
			}
		}
	}
	return out
}

// Quantile reads the q-quantile (0 < q < 1) off a merged histogram's
// cumulative bucket counts, interpolating linearly within the winning
// bucket. Observations beyond the last bound report that bound (the
// histogram cannot resolve further).
func Quantile(h obs.HistSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var cum float64
	lo := 0.0
	for i, n := range h.Counts {
		prev := cum
		cum += float64(n)
		if cum >= target && n > 0 {
			if i >= len(h.Buckets) {
				return h.Buckets[len(h.Buckets)-1]
			}
			hi := h.Buckets[i]
			frac := (target - prev) / float64(n)
			return lo + frac*(hi-lo)
		}
		if i < len(h.Buckets) {
			lo = h.Buckets[i]
		}
	}
	if len(h.Buckets) > 0 {
		return h.Buckets[len(h.Buckets)-1]
	}
	return 0
}

// Events converts findings into obs.KindHealth records (A = value,
// B = threshold, C = packed detector+status) for appending to a log
// before trace export. The records inherit each finding's end-of-span
// stamp, so appending them to an already time-sorted event slice keeps
// it sorted.
func Events(findings []Finding) []obs.Event {
	if len(findings) == 0 {
		return nil
	}
	evs := make([]obs.Event, len(findings))
	for i, f := range findings {
		evs[i] = obs.Event{
			TimeUS: f.TimeUS,
			Kind:   obs.KindHealth,
			Source: f.SourceIdx,
			Core:   -1,
			A:      f.Value,
			B:      f.Threshold,
			C:      obs.PackHealth(f.Detector, f.Status),
		}
	}
	return evs
}

// Worst returns the most severe status across the findings (HealthOK
// for none).
func Worst(findings []Finding) obs.HealthStatus {
	worst := obs.HealthOK
	for _, f := range findings {
		if f.Status > worst {
			worst = f.Status
		}
	}
	return worst
}

// endStampUS is the latest simulated instant the log covers: the max
// per-source sim-time gauge. A chip sets its gauge after every span it
// steps and stamps no event past the end of that span, so the stamp is at
// least every event stamped since its source last rewound (a reset or a
// restore to an earlier time can leave later-stamped events in a ring).
func endStampUS(log *obs.Log) int64 {
	var tMax float64
	for i := range log.Sources {
		if t := log.Sources[i].Gauges[obs.GTimeSec]; t > tMax {
			tMax = t
		}
	}
	if us := obs.StampUS(tMax); us > 0 {
		return us
	}
	return 0 // no time recorded, or an infinite gauge that has no stamp
}
