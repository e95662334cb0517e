// Package rng provides deterministic, stream-split random number generation
// for the simulator.
//
// Every stochastic component (di/dt event arrivals, CPM calibration error,
// workload phase jitter, query arrivals) draws from its own named stream
// derived from a single experiment seed. Splitting by name means adding a new
// consumer of randomness does not perturb the draws seen by existing
// components, so calibrated experiment outputs stay stable as the simulator
// grows.
package rng

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand/v2"
)

// Source is a deterministic random stream. The zero Source is valid for
// Reseed, SplitInto and UnmarshalBinary, which allocate its generator on
// first use; it must be positioned by one of them before it draws.
type Source struct {
	r *rand.Rand
	// pcg is the stream's generator state, retained so Reseed and
	// SplitInto can rewind a Source in place: rand.Rand carries no state
	// of its own beyond the generator, so reseeding the PCG restores the
	// stream to exactly what New/Split would have produced.
	pcg *rand.PCG
}

func nameSeed(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// New returns a stream seeded from the experiment seed and a component name.
func New(seed uint64, name string) *Source {
	s := new(Source)
	s.Reseed(seed, name)
	return s
}

// Split derives a child stream; the child's draws are independent of the
// parent's future draws.
func (s *Source) Split(name string) *Source {
	child := new(Source)
	s.SplitInto(child, name)
	return child
}

// Reseed rewinds the stream in place to the state New(seed, name) would
// produce, without allocating once the Source has been positioned. Pooled
// components use it to restore their retained Sources to
// fresh-construction state, so pooled runs draw bit-identical sequences
// to freshly built ones.
func (s *Source) Reseed(seed uint64, name string) {
	s.generator().Seed(seed, nameSeed(name))
}

// SplitInto is Split writing into an existing child Source: it consumes
// one parent draw (exactly as Split does) and rewinds child to the state a
// fresh Split(name) would have.
func (s *Source) SplitInto(child *Source, name string) {
	child.generator().Seed(s.r.Uint64(), nameSeed(name))
}

// generator returns the stream's PCG, allocating it (and the rand.Rand
// over it) for a zero Source. This is the one place a generator is built.
func (s *Source) generator() *rand.PCG {
	if s.pcg == nil {
		s.pcg = rand.NewPCG(0, 0)
		s.r = rand.New(s.pcg)
	}
	return s.pcg
}

// AppendBinary appends the stream's exact position to b: the underlying
// PCG state. rand.Rand carries no state beyond the generator (see
// Reseed), so the PCG bytes are the complete stream identity — a restored
// Source continues the draw sequence bit-identically. This is the hook
// the snapshot engine (internal/snapshot) serializes Sources through; it
// allocates nothing when b has room.
func (s *Source) AppendBinary(b []byte) ([]byte, error) {
	return s.pcg.AppendBinary(b)
}

// UnmarshalBinary rewinds the stream in place to the marshaled position.
// A zero Source allocates its generator; a live one is reseeded without
// allocating, exactly like Reseed.
func (s *Source) UnmarshalBinary(data []byte) error {
	if err := s.generator().UnmarshalBinary(data); err != nil {
		return fmt.Errorf("rng: restore source: %w", err)
	}
	return nil
}

// Skip advances the stream by n generator outputs in O(log n) steps,
// leaving it exactly where n Float64 draws would: each Float64 consumes
// one output. Draws that take a variable number of outputs (Normal, Exp)
// cannot be skipped this way. Allocation-free.
func (s *Source) Skip(n uint64) {
	// The PCG advances its 128-bit state x as x ← a·x + c (mod 2^128), one
	// step per output; n steps compose to x ← A·x + C. Square-and-multiply
	// builds (A, C) from (a, c) the way PCG's own jump-ahead does.
	const (
		mulHi = 2549297995355413924
		mulLo = 4865540595714422341
		incHi = 6364136223846793005
		incLo = 1442695040888963407
	)
	var buf [20]byte
	b, _ := s.pcg.AppendBinary(buf[:0])
	x := u128{binary.BigEndian.Uint64(b[4:]), binary.BigEndian.Uint64(b[12:])}
	accMul, accAdd := u128{0, 1}, u128{}
	curMul, curAdd := u128{mulHi, mulLo}, u128{incHi, incLo}
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			accMul = accMul.mul(curMul)
			accAdd = accAdd.mul(curMul).add(curAdd)
		}
		curAdd = curMul.add(u128{0, 1}).mul(curAdd)
		curMul = curMul.mul(curMul)
	}
	x = accMul.mul(x).add(accAdd)
	s.pcg.Seed(x.hi, x.lo)
}

// u128 is an unsigned 128-bit integer with wrapping arithmetic.
type u128 struct{ hi, lo uint64 }

func (a u128) mul(b u128) u128 {
	hi, lo := bits.Mul64(a.lo, b.lo)
	return u128{hi + a.hi*b.lo + a.lo*b.hi, lo}
}

func (a u128) add(b u128) u128 {
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, carry)
	return u128{hi, lo}
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform value in [lo,hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Normal returns a normally distributed value.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Exp returns an exponentially distributed value with the given mean.
// A zero or negative mean returns 0, which callers use to disable a process.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.r.ExpFloat64() * mean
}

// Poisson draws the number of events in one interval of a Poisson process
// with the given expected count, using Knuth's method for small lambda and a
// normal approximation above 30 (the simulator never needs large counts to
// be exact, only unbiased).
func (s *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(s.Normal(lambda, math.Sqrt(lambda))))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// IntN returns a uniform integer in [0,n).
func (s *Source) IntN(n int) int { return s.r.IntN(n) }

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.r.Float64() < p }

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }
