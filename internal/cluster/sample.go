package cluster

// Sampled-lane seam: cluster-level SampleHint/FastForward, synchronized
// across powered nodes exactly like Advance's horizon gather.

// SampleHint returns the cluster-wide fast-forward bound: the minimum of
// the powered nodes' hints, capped at maxSec. A fully suspended cluster
// returns maxSec (nothing constrains the skip).
func (c *Cluster) SampleHint(maxSec float64) float64 {
	h := maxSec
	for _, n := range c.nodes {
		if !n.on {
			continue
		}
		if nh := n.srv.SampleHint(maxSec); nh < h {
			h = nh
		}
	}
	return h
}

// FastForward extrapolates every powered node by h seconds at frozen
// conditions. The caller must have bounded h with SampleHint (which also
// applied memory factors).
func (c *Cluster) FastForward(h float64) {
	for _, n := range c.nodes {
		if n.on {
			n.srv.FastForward(h)
		}
	}
}

// SampleSignature appends the powered nodes' phase signatures to buf in
// node order, with a leading element per node marking it powered; a
// suspend or power-on between windows changes the signature length and the
// phase detector treats that as a change point.
func (c *Cluster) SampleSignature(buf []float64) []float64 {
	for _, n := range c.nodes {
		if n.on {
			buf = append(buf, 1)
			buf = n.srv.SampleSignature(buf)
		}
	}
	return buf
}

// EmitSampleMode records a governor fidelity switch in the first powered
// node's recorder shard.
func (c *Cluster) EmitSampleMode(toFast bool, ciRel, dist float64) {
	for _, n := range c.nodes {
		if n.on {
			n.srv.EmitSampleMode(toFast, ciRel, dist)
			return
		}
	}
}
