package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedIndependence(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("nearby seeds produced %d identical draws out of 1000", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Errorf("zero seed generated only %d distinct values in 100 draws", len(seen))
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split stream matched parent %d/1000 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(4)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7) bucket %d count %d far from uniform expectation 10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(8)
	var w Welford
	for i := 0; i < 100000; i++ {
		w.Add(r.ExpFloat64())
	}
	if math.Abs(w.Mean()-1) > 0.02 {
		t.Errorf("exp(1) mean = %v, want ~1", w.Mean())
	}
}

func TestSampleKProperties(t *testing.T) {
	r := NewRNG(10)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(50)
		k := 1 + r.Intn(60) // may exceed n
		got := r.SampleK(n, k, nil)
		wantLen := k
		if k > n {
			wantLen = n
		}
		if len(got) != wantLen {
			t.Fatalf("SampleK(%d,%d) returned %d values", n, k, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= n {
				t.Fatalf("SampleK(%d,%d) out-of-range value %d", n, k, v)
			}
			if seen[v] {
				t.Fatalf("SampleK(%d,%d) duplicate value %d", n, k, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleKUniformity(t *testing.T) {
	// Each of 10 items should appear in a 3-subset with probability 3/10.
	r := NewRNG(11)
	counts := make([]int, 10)
	const trials = 30000
	var buf []int
	for i := 0; i < trials; i++ {
		buf = r.SampleK(10, 3, buf)
		for _, v := range buf {
			counts[v]++
		}
	}
	want := float64(trials) * 0.3
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.08 {
			t.Errorf("item %d sampled %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestShuffleIntsPreservesElements(t *testing.T) {
	r := NewRNG(12)
	p := []int{1, 2, 3, 4, 5, 6}
	r.ShuffleInts(p)
	sum := 0
	for _, v := range p {
		sum += v
	}
	if sum != 21 {
		t.Errorf("shuffle changed contents: %v", p)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}
