package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary()
	if s.Count() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty summary should report zeros")
	}
	for _, v := range []float64{4, 2, 8, 6} {
		s.Add(v)
	}
	if s.Count() != 4 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 8 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryPercentiles(t *testing.T) {
	s := NewSummary()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	tests := []struct {
		p, want float64
	}{
		{0, 1}, {100, 100}, {50, 50.5}, {95, 95.05}, {25, 25.75},
	}
	for _, tt := range tests {
		if got := s.Percentile(tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestSummaryAddAfterPercentile(t *testing.T) {
	// Percentile sorts in place; subsequent Adds must still work.
	s := NewSummary()
	s.Add(3)
	s.Add(1)
	_ = s.Percentile(50)
	s.Add(2)
	if got := s.Percentile(50); got != 2 {
		t.Errorf("median after interleaved add = %v, want 2", got)
	}
	if s.String() == "" {
		t.Error("String() empty")
	}
}

func TestWelfordMatchesSummary(t *testing.T) {
	r := NewRNG(20)
	s := NewSummary()
	var w Welford
	for i := 0; i < 10000; i++ {
		v := r.ExpFloat64()*3 + 1
		s.Add(v)
		w.Add(v)
	}
	if math.Abs(s.Mean()-w.Mean()) > 1e-9 {
		t.Errorf("means differ: %v vs %v", s.Mean(), w.Mean())
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
