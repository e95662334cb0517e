package rng

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42, "didt")
	b := New(42, "didt")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed+name diverged at draw %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := New(42, "didt")
	b := New(42, "cpm")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different names produced %d identical draws", same)
	}
}

func TestSplitIsStable(t *testing.T) {
	// Splitting a child must not depend on how many draws other children
	// consumed after the split.
	parent1 := New(7, "root")
	c1 := parent1.Split("a")
	v1 := c1.Float64()

	parent2 := New(7, "root")
	c2 := parent2.Split("a")
	// Consume from a different child; c2's stream must be unaffected.
	other := parent2.Split("b")
	other.Float64()
	v2 := c2.Float64()

	if v1 != v2 {
		t.Fatalf("split stream changed by sibling activity: %v vs %v", v1, v2)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1, "u")
	for i := 0; i < 1000; i++ {
		v := s.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(1, "n")
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Errorf("Normal stddev = %v, want ~2", sd)
	}
}

func TestExp(t *testing.T) {
	s := New(1, "e")
	if v := s.Exp(0); v != 0 {
		t.Errorf("Exp(0) = %v, want 0", v)
	}
	if v := s.Exp(-1); v != 0 {
		t.Errorf("Exp(-1) = %v, want 0", v)
	}
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(3)
	}
	if mean := sum / n; math.Abs(mean-3) > 0.1 {
		t.Errorf("Exp mean = %v, want ~3", mean)
	}
}

func TestPoisson(t *testing.T) {
	s := New(1, "p")
	if k := s.Poisson(0); k != 0 {
		t.Errorf("Poisson(0) = %d", k)
	}
	for _, lambda := range []float64{0.5, 3, 50} {
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			k := s.Poisson(lambda)
			if k < 0 {
				t.Fatalf("Poisson(%v) returned negative %d", lambda, k)
			}
			sum += float64(k)
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.1*lambda+0.1 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestBernoulliAndIntN(t *testing.T) {
	s := New(1, "b")
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.02 {
		t.Errorf("Bernoulli(0.25) frequency = %v", frac)
	}
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntN(5)
		if v < 0 || v >= 5 {
			t.Fatalf("IntN out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("IntN(5) only produced %d distinct values", len(seen))
	}
}

func TestPerm(t *testing.T) {
	s := New(1, "perm")
	p := s.Perm(8)
	seen := make([]bool, 8)
	for _, v := range p {
		if v < 0 || v >= 8 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

// TestAppendBinaryMatchesMarshal requires AppendBinary to append exactly
// the PCG's marshaled state after what b holds, to allocate nothing when
// b has room, and to be the position UnmarshalBinary resumes from.
func TestAppendBinaryMatchesMarshal(t *testing.T) {
	s := New(7, "hook")
	s.Float64()
	want, err := s.pcg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.AppendBinary([]byte("prefix"))
	if err != nil || string(got) != "prefix"+string(want) {
		t.Fatalf("AppendBinary gave %q, %v; want %q", got, err, "prefix"+string(want))
	}
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() { s.AppendBinary(buf) }); allocs != 0 {
		t.Fatalf("AppendBinary allocates %v times", allocs)
	}
	var r Source
	if err := r.UnmarshalBinary(want); err != nil {
		t.Fatal(err)
	}
	if a, b := r.Float64(), s.Float64(); a != b {
		t.Fatalf("restored stream draws %v, the original %v", a, b)
	}
}

// skipMatchesDraws checks that Skip(n) leaves a fresh (seed, name) stream
// where n Float64 draws leave ref: the same generator bytes, then the same
// next Normal and Exp draws, whose output counts vary. ref is left as it
// was.
func skipMatchesDraws(t *testing.T, seed uint64, name string, n uint64, ref *Source) {
	t.Helper()
	s := New(seed, name)
	s.Skip(n)
	want, err := ref.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("seed %d %q: Skip(%d) state %x, %d draws leave %x", seed, name, n, got, n, want)
	}
	var next Source
	if err := next.UnmarshalBinary(want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if a, b := s.Normal(0, 1), next.Normal(0, 1); a != b {
			t.Fatalf("seed %d %q n %d: Normal #%d after Skip %v, after draws %v", seed, name, n, i, a, b)
		}
		if a, b := s.Exp(1), next.Exp(1); a != b {
			t.Fatalf("seed %d %q n %d: Exp #%d after Skip %v, after draws %v", seed, name, n, i, a, b)
		}
	}
}

// TestSkipMatchesDraws is the jump-ahead property over several streams:
// n = 0, 1, 2, every 2^k ± 1 up to 2^20, and random n up to 10^6. The
// reference stream draws its way from one n to the next.
func TestSkipMatchesDraws(t *testing.T) {
	pick := New(2015, "skip-test")
	for _, st := range []struct {
		seed uint64
		name string
	}{{1, "frozen"}, {20151205, "chip/P0/frozen"}, {7, ""}, {1 << 63, "didt"}} {
		ns := []uint64{0, 1, 2}
		for k := 2; k <= 20; k++ {
			ns = append(ns, 1<<k-1, 1<<k+1)
		}
		for i := 0; i < 6; i++ {
			ns = append(ns, uint64(pick.IntN(1_000_001)))
		}
		slices.Sort(ns)
		ref := New(st.seed, st.name)
		var drawn uint64
		for _, n := range ns {
			for ; drawn < n; drawn++ {
				ref.Float64()
			}
			skipMatchesDraws(t, st.seed, st.name, n, ref)
		}
	}
}

// TestSkipComposes requires Skip(a) then Skip(b) to land where Skip(a+b)
// does, and Skip to allocate nothing.
func TestSkipComposes(t *testing.T) {
	a, b := New(3, "c"), New(3, "c")
	a.Skip(1_000_003)
	a.Skip(1 << 40)
	b.Skip(1_000_003 + 1<<40)
	if x, y := a.Float64(), b.Float64(); x != y {
		t.Fatalf("split skips draw %v, one skip %v", x, y)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.Skip(281) }); allocs != 0 {
		t.Fatalf("Skip allocates %v times", allocs)
	}
}

// FuzzSourceSkip checks the jump-ahead against plain draws for any
// stream and any n up to 4096.
func FuzzSourceSkip(f *testing.F) {
	f.Add(uint64(20151205), "chip/P0/frozen", uint16(281))
	f.Add(uint64(0), "", uint16(0))
	f.Add(uint64(7), "frozen", uint16(4096))
	f.Add(uint64(1<<64-1), "x", uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, name string, n uint16) {
		n %= 4097
		ref := New(seed, name)
		for i := uint16(0); i < n; i++ {
			ref.Float64()
		}
		skipMatchesDraws(t, seed, name, uint64(n), ref)
	})
}

var sinkFloat float64

// BenchmarkSkip times one jump-ahead over a fast-forward's worth of frozen
// ticks (281, a 9 s span) and then one draw.
func BenchmarkSkip(b *testing.B) {
	s := New(1, "frozen")
	b.ReportAllocs()
	for b.Loop() {
		s.Skip(281)
		sinkFloat = s.Float64()
	}
}
