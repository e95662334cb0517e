package stats

import (
	"math"
	"testing"
	"testing/quick"

	"agsim/internal/rng"
)

func TestMeanSum(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v", m)
	}
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("Mean = %v", m)
	}
	if s := Sum([]float64{1, 2, 3}); s != 6 {
		t.Errorf("Sum = %v", s)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if m := Min(xs); m != -1 {
		t.Errorf("Min = %v", m)
	}
	if m := Max(xs); m != 7 {
		t.Errorf("Max = %v", m)
	}
}

func TestMinPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Min(nil)
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if v := Variance(xs); math.Abs(v-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if sd := StdDev(xs); math.Abs(sd-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", sd)
	}
	if v := Variance([]float64{5}); v != 0 {
		t.Errorf("Variance single = %v", v)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p, want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {90, 9.1},
	} {
		if got := Percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	for _, tc := range []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	} {
		if got := c.At(tc.x); got != tc.want {
			t.Errorf("CDF.At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if q := c.Quantile(0.5); math.Abs(q-2.5) > 1e-9 {
		t.Errorf("Quantile(0.5) = %v", q)
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d", c.Len())
	}
	empty := NewCDF(nil)
	if got := empty.At(1); got != 0 {
		t.Errorf("empty CDF At = %v", got)
	}
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty CDF Quantile should be NaN")
	}
}

func TestFitExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{5, 7, 9, 11} // y = 2x + 5
	fit, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-5) > 1e-12 {
		t.Errorf("fit = %+v", fit)
	}
	if fit.RMSE > 1e-12 || fit.R2 < 1-1e-12 {
		t.Errorf("fit error stats = %+v", fit)
	}
	if got := fit.Predict(10); math.Abs(got-25) > 1e-12 {
		t.Errorf("Predict = %v", got)
	}
}

func TestFitNoisyLineRecoversSlope(t *testing.T) {
	r := rng.New(3, "fit")
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := r.Uniform(0, 100)
		xs = append(xs, x)
		ys = append(ys, 4600-2.5*x+r.Normal(0, 5))
	}
	fit, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope+2.5) > 0.05 {
		t.Errorf("Slope = %v, want ~-2.5", fit.Slope)
	}
	if fit.RelRMSE > 0.01 {
		t.Errorf("RelRMSE = %v, want small", fit.RelRMSE)
	}
}

func TestFitDegenerate(t *testing.T) {
	if _, err := Fit([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error for single point")
	}
	if _, err := Fit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("expected error for zero x variance")
	}
	if _, err := Fit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("expected error for length mismatch")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if p := Pearson(xs, []float64{2, 4, 6, 8}); math.Abs(p-1) > 1e-12 {
		t.Errorf("Pearson perfect = %v", p)
	}
	if p := Pearson(xs, []float64{8, 6, 4, 2}); math.Abs(p+1) > 1e-12 {
		t.Errorf("Pearson inverse = %v", p)
	}
	if p := Pearson(xs, []float64{5, 5, 5, 5}); p != 0 {
		t.Errorf("Pearson flat = %v", p)
	}
}

func TestPercentileWithinRange(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p = math.Mod(math.Abs(p), 100)
		v := Percentile(xs, p)
		return v >= Min(xs) && v <= Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
