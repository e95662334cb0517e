package server

// Sampled-lane seam: the server-level counterparts of the chip's
// SampleHint/FastForward pair, aggregated the same way Advance aggregates
// the macro lane — memory factors applied before the hint so completion
// times are computed at the MIPS the extrapolation will retire work at,
// and all chips advanced by the same synchronized span.

// SampleHint applies the memory factors for the upcoming span and returns
// the server-wide fast-forward bound: the minimum of the per-chip hints,
// capped at maxSec. Callers bound FastForward with it.
func (s *Server) SampleHint(maxSec float64) float64 {
	s.applyMemFactors()
	h := maxSec
	for _, c := range s.chips {
		if ch := c.SampleHint(maxSec); ch < h {
			h = ch
		}
	}
	return h
}

// FastForward extrapolates every chip by h seconds at frozen conditions.
// The caller must have bounded h with SampleHint (which also applied the
// memory factors for this span).
func (s *Server) FastForward(h float64) {
	for _, c := range s.chips {
		c.FastForward(h)
	}
	s.timeSec += h
}

// SampleSignature appends every chip's phase signature to buf in socket
// order and returns it.
func (s *Server) SampleSignature(buf []float64) []float64 {
	for _, c := range s.chips {
		buf = c.SampleSignature(buf)
	}
	return buf
}

// EmitSampleMode records a governor fidelity switch in socket 0's recorder
// shard (the governor drives the whole server as one unit).
func (s *Server) EmitSampleMode(toFast bool, ciRel, dist float64) {
	if len(s.chips) > 0 {
		s.chips[0].EmitSampleMode(toFast, ciRel, dist)
	}
}
