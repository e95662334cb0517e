package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// goldenSeeds are the seeds goldens are committed for: the first was used
// while tuning the benchmark, the second is held out. A run whose seed
// has no golden checks its warm-up pass against the first.
var goldenSeeds = []uint64{20151205, 7}

// golden is one committed reference: the reference lane's outputs for
// one workload and seed, plus the digest of the workload's own lane so a
// run can say whether it reproduced the recording bit for bit.
type golden struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Reference  string             `json:"reference"`
	LaneSHA256 string             `json:"lane_sha256"`
	Outputs    map[string]float64 `json:"outputs"`
	// Deviations holds the workload lane's own value for each output that
	// was already off its reference by more than the tolerance when the
	// golden was recorded. Such an output is held to its recorded lane
	// value instead: the gap is listed on every run rather than failing
	// it, and it cannot widen unnoticed.
	Deviations map[string]float64 `json:"deviations,omitempty"`
}

func goldenPath(dir, workload string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.%d.json", workload, seed))
}

// loadGolden reads the golden for (workload, seed); the error wraps
// os.ErrNotExist when none is committed.
func loadGolden(dir, workload string, seed uint64) (*golden, error) {
	data, err := os.ReadFile(goldenPath(dir, workload, seed))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenPath(dir, workload, seed), err)
	}
	return &g, nil
}

// record runs the workload's reference lane and its own lane at seed and
// writes the golden file.
func record(dir string, w benchWorkload, seed uint64) error {
	e := &env{scale: fullScale}
	g := golden{Workload: w.name, Seed: seed, Reference: w.refLane, Outputs: map[string]float64{}}
	for _, o := range w.reference(e, seed) {
		if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			return fmt.Errorf("%s seed %d: reference output %s is %v", w.name, seed, o.Key, o.Value)
		}
		g.Outputs[o.Key] = o.Value
	}
	p := w.run(e, seed)
	if err := firstError(p); err != nil {
		return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	g.LaneSHA256 = digest(p.outputs())
	for _, o := range p.outputs() {
		if ref, ok := g.Outputs[o.Key]; ok && errVsRef(o.Value, ref) > 1 {
			if g.Deviations == nil {
				g.Deviations = map[string]float64{}
			}
			g.Deviations[o.Key] = o.Value
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir, w.name, seed), append(data, '\n'), 0o644)
}

func firstError(p *pass) error {
	for _, o := range p.ops {
		if o.err != nil {
			return o.err
		}
	}
	if p.verify != nil {
		return p.verify()
	}
	return nil
}

// digest fingerprints outputs bit for bit, in order.
func digest(outs []output) string {
	h := sha256.New()
	for _, o := range outs {
		fmt.Fprintf(h, "%s=%x\n", o.Key, math.Float64bits(o.Value))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// errVsRef is |v-ref| in units of the accuracy harness's headline
// tolerance: 1% of the reference with a 0.05 absolute floor.
func errVsRef(v, ref float64) float64 {
	return math.Abs(v-ref) / math.Max(0.01*math.Abs(ref), 0.05)
}

// verdict accumulates the correctness of every pass a run makes.
type verdict struct {
	attempted, failed int
	// errVsRef is the largest error against a golden's reference lane over
	// checked outputs, recorded deviations included.
	errVsRef float64
	checked  int
	notes    []string
	// deviations lists the recorded deviations the run met, once each.
	deviations []string
	seenDev    map[string]bool
}

const maxNotes = 10

func (v *verdict) note(format string, args ...any) {
	if len(v.notes) < maxNotes {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// check marks each op of the pass failed if it panicked, produced a
// non-finite output, is off its golden value by more than the tolerance,
// or differs from same, the outputs of an earlier pass at the same seed.
// g and same may be nil. Strict requires the pass to cover the golden
// exactly, so a renamed or dropped output cannot go unchecked.
func (v *verdict) check(label string, p *pass, g *golden, same map[string]float64, strict bool) {
	seen := 0
	panicked := false
	for i, o := range p.ops {
		v.attempted++
		bad := o.err != nil
		if bad {
			panicked = true
			v.note("%s op %d: %v", label, i, o.err)
		}
		for _, out := range o.outputs {
			if math.IsNaN(out.Value) || math.IsInf(out.Value, 0) {
				bad = true
				v.note("%s %s: non-finite %v", label, out.Key, out.Value)
			}
			if same != nil {
				if want, ok := same[out.Key]; !ok || math.Float64bits(want) != math.Float64bits(out.Value) {
					bad = true
					v.note("%s %s: %v differs from the first pass's %v at the same seed", label, out.Key, out.Value, want)
				}
			}
			if g == nil {
				continue
			}
			ref, ok := g.Outputs[out.Key]
			if !ok {
				if strict {
					bad = true
					v.note("%s %s: no golden value", label, out.Key)
				}
				continue
			}
			seen++
			v.checked++
			e := errVsRef(out.Value, ref)
			v.errVsRef = max(v.errVsRef, e)
			if lane, ok := g.Deviations[out.Key]; ok {
				if !v.seenDev[out.Key] {
					if v.seenDev == nil {
						v.seenDev = map[string]bool{}
					}
					v.seenDev[out.Key] = true
					v.deviations = append(v.deviations, fmt.Sprintf("%s: %.6g vs reference %.6g (%.2fx tolerance), recorded lane value %.6g",
						out.Key, out.Value, ref, e, lane))
				}
				ref, e = lane, errVsRef(out.Value, lane)
			}
			if e > 1 {
				bad = true
				v.note("%s %s: %.6g vs golden %.6g (%.2fx tolerance)", label, out.Key, out.Value, ref, e)
			}
		}
		if bad {
			v.failed++
		}
	}
	if g != nil && strict && !panicked && seen != len(g.Outputs) {
		v.attempted++
		v.failed++
		v.note("%s: pass produced %d of the golden's %d outputs", label, seen, len(g.Outputs))
	}
}

// verify runs a pass's post-timing check, if it has one, as one more op.
func (v *verdict) verify(label string, p *pass) {
	if p.verify == nil {
		return
	}
	v.attempted++
	if err := p.verify(); err != nil {
		v.failed++
		v.note("%s: %v", label, err)
	}
}

func outputMap(p *pass) map[string]float64 {
	m := map[string]float64{}
	for _, o := range p.outputs() {
		m[o.Key] = o.Value
	}
	return m
}
