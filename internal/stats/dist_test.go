package stats

import (
	"math"
	"testing"
)

func sampleMean(d Dist, r *RNG, n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

func TestUniformMoments(t *testing.T) {
	d := Uniform{Lo: 2, Hi: 6}
	r := NewRNG(2)
	m := sampleMean(d, r, 100000)
	if math.Abs(m-4) > 0.05 {
		t.Errorf("uniform[2,6) mean = %v, want ~4", m)
	}
	if d.Mean() != 4 {
		t.Errorf("Mean() = %v, want 4", d.Mean())
	}
	for i := 0; i < 1000; i++ {
		v := d.Sample(r)
		if v < 2 || v >= 6 {
			t.Fatalf("uniform sample out of range: %v", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	d := Exponential{Rate: 0.5}
	r := NewRNG(3)
	m := sampleMean(d, r, 200000)
	if math.Abs(m-2) > 0.05 {
		t.Errorf("exp(0.5) mean = %v, want ~2", m)
	}
	if d.Mean() != 2 {
		t.Errorf("Mean() = %v", d.Mean())
	}
}

func TestParetoMeanAndBound(t *testing.T) {
	d := Pareto{Xm: 1, Alpha: 2}
	r := NewRNG(6)
	for i := 0; i < 10000; i++ {
		if v := d.Sample(r); v < 1 {
			t.Fatalf("pareto sample %v below scale", v)
		}
	}
	if got, want := d.Mean(), 2.0; got != want {
		t.Errorf("Mean() = %v, want %v", got, want)
	}
	if !math.IsInf(Pareto{Xm: 1, Alpha: 1}.Mean(), 1) {
		t.Error("pareto alpha=1 mean should be +Inf")
	}
}
