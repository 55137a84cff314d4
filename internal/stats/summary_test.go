package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	var sorted []float64
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, float64(i))
	}
	tests := []struct {
		p, want float64
	}{
		{0, 1}, {100, 100}, {50, 50.5}, {95, 95.05}, {25, 25.75},
	}
	for _, tt := range tests {
		if got := Percentile(sorted, tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("percentile of no values should be 0")
	}
}

func TestWelfordMatchesMeanOf(t *testing.T) {
	r := NewRNG(20)
	var values []float64
	var w Welford
	for i := 0; i < 10000; i++ {
		v := r.ExpFloat64()*3 + 1
		values = append(values, v)
		w.Add(v)
	}
	if math.Abs(MeanOf(values)-w.Mean()) > 1e-9 {
		t.Errorf("means differ: %v vs %v", MeanOf(values), w.Mean())
	}
}

func TestGiniKnownValues(t *testing.T) {
	tests := []struct {
		name   string
		in     []float64
		want   float64
		within float64
	}{
		{"empty", nil, 0, 0},
		{"equal", []float64{5, 5, 5, 5}, 0, 1e-12},
		{"all-zero", []float64{0, 0, 0}, 0, 0},
		{"one-holds-all", []float64{0, 0, 0, 100}, 0.75, 1e-12},
		{"two-values", []float64{1, 3}, 0.25, 1e-12},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Gini(tt.in); math.Abs(got-tt.want) > tt.within {
				t.Errorf("Gini(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestGiniProperties(t *testing.T) {
	// Gini in [0,1) and scale-invariant.
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep magnitudes bounded so the scale-invariance probe below
			// cannot overflow before reaching Gini.
			vals = append(vals, math.Mod(math.Abs(v), 1e9))
		}
		g := Gini(vals)
		if g < 0 || g >= 1 {
			return false
		}
		scaled := make([]float64, len(vals))
		for i, v := range vals {
			scaled[i] = v * 3.7
		}
		return math.Abs(Gini(scaled)-g) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGiniDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	_ = Gini(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Gini mutated its input: %v", in)
	}
}

func TestSliceHelpers(t *testing.T) {
	vals := []float64{2, 8, 4, 6}
	if MeanOf(vals) != 5 {
		t.Errorf("MeanOf = %v", MeanOf(vals))
	}
	if MeanOf(nil) != 0 || StdDevOf(nil) != 0 {
		t.Error("empty-slice helpers should return 0")
	}
	if got, want := StdDevOf(vals), math.Sqrt(5.0); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdDevOf = %v, want %v", got, want)
	}
}
