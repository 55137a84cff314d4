package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"sbqa/internal/stats"
)

// TestPoissonMatchesHistoricalInlineDraw pins the exact draw contract the
// boinc and adwords worlds relied on before arrivals were unified: one
// ExpFloat64 per gap, divided by the rate. If this ever changes, every
// recorded finding and golden trajectory silently shifts.
func TestPoissonMatchesHistoricalInlineDraw(t *testing.T) {
	a := stats.NewRNG(42)
	b := stats.NewRNG(42)
	p := Poisson{Rate: 3.5}
	for i := 0; i < 1000; i++ {
		got := p.Next(123.0+float64(i), a)
		want := b.ExpFloat64() / 3.5
		if got != want {
			t.Fatalf("draw %d: Poisson.Next = %v, inline pattern = %v", i, got, want)
		}
	}
	if a.State() != b.State() {
		t.Fatalf("rng states diverged: %v vs %v", a.State(), b.State())
	}
}

// gapDigest replays n gaps of a process from seed and hashes the exact
// float64 bit patterns — a compact golden that pins every draw.
func gapDigest(t *testing.T, mk func() Arrivals, seed uint64, n int) string {
	t.Helper()
	rng := stats.NewRNG(seed)
	proc := mk()
	h := sha256.New()
	now := 0.0
	for i := 0; i < n; i++ {
		gap := proc.Next(now, rng)
		if gap < 0 || math.IsNaN(gap) {
			t.Fatalf("gap %d: invalid %v", i, gap)
		}
		fmt.Fprintf(h, "%x\n", math.Float64bits(gap))
		now += gap
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestArrivalsGolden pins the byte-exact gap sequences of every process
// under a fixed seed. Regenerate the constants (the test prints them on
// mismatch) only when a draw-sequence change is intentional — and say so in
// the commit, because it invalidates recorded findings.
func TestArrivalsGolden(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Arrivals
		want string
	}{
		{"poisson", func() Arrivals { return Poisson{Rate: 2} }, "500ded5fb303b2f5"},
		{"mmpp2", func() Arrivals {
			m, err := NewMMPP2(1, 50, 20, 5)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, "4ec7426203df180c"},
		{"flash", func() Arrivals {
			return Modulated{Base: Poisson{Rate: 2}, Factor: FlashFactor(10, 5, 10)}
		}, "f75a8dc66adc9700"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := gapDigest(t, tc.mk, 7, 500)
			if got != tc.want {
				t.Fatalf("golden gap digest for %s = %q, want %q (update only for intentional draw changes)", tc.name, got, tc.want)
			}
			// Same seed → same digest on a second replay (statefulness is
			// per-instance, not global).
			if again := gapDigest(t, tc.mk, 7, 500); again != got {
				t.Fatalf("replay diverged: %q vs %q", again, got)
			}
		})
	}
}

// --- Satellite: empirical generator statistics. A regression in a sampler
// (wrong rate, broken thinning, bad tail) would silently invalidate every
// finding built on it, so each process's empirical mean and tail are pinned
// within tolerance under a fixed seed.

func sampleGaps(mk func() Arrivals, seed uint64, n int) []float64 {
	rng := stats.NewRNG(seed)
	proc := mk()
	gaps := make([]float64, n)
	now := 0.0
	for i := range gaps {
		g := proc.Next(now, rng)
		gaps[i] = g
		now += g
	}
	return gaps
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func quantileOf(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[int(q*float64(len(sorted)-1))]
}

func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero target", name)
	}
	if rel := math.Abs(got-want) / math.Abs(want); rel > relTol {
		t.Fatalf("%s = %.5g, want %.5g within %.0f%% (off by %.1f%%)", name, got, want, relTol*100, rel*100)
	}
}

func TestPoissonStatistics(t *testing.T) {
	const rate = 4.0
	gaps := sampleGaps(func() Arrivals { return Poisson{Rate: rate} }, 11, 200_000)
	within(t, "poisson mean gap", meanOf(gaps), 1/rate, 0.01)
	// Exponential p99 = ln(100)/rate.
	within(t, "poisson p99 gap", quantileOf(gaps, 0.99), math.Log(100)/rate, 0.05)
	// Coefficient of variation of exponential gaps is 1.
	var ss float64
	m := meanOf(gaps)
	for _, g := range gaps {
		ss += (g - m) * (g - m)
	}
	cv := math.Sqrt(ss/float64(len(gaps))) / m
	within(t, "poisson gap CV", cv, 1, 0.03)
}

func TestMMPP2Statistics(t *testing.T) {
	// Long-run rate is the dwell-weighted average of the state rates.
	const rateA, dwellA, rateB, dwellB = 1.0, 50.0, 20.0, 5.0
	gaps := sampleGaps(func() Arrivals {
		m, err := NewMMPP2(rateA, dwellA, rateB, dwellB)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}, 13, 400_000)
	var total float64
	for _, g := range gaps {
		total += g
	}
	wantRate := (rateA*dwellA + rateB*dwellB) / (dwellA + dwellB)
	within(t, "mmpp2 long-run rate", float64(len(gaps))/total, wantRate, 0.05)

	// Burstiness: counts in fixed windows must be overdispersed relative to
	// Poisson (index of dispersion > 1). For this parameterization the
	// theoretical index is far above 2.
	const window = 10.0
	counts := map[int]float64{}
	now := 0.0
	for _, g := range gaps {
		now += g
		counts[int(now/window)]++
	}
	var cs []float64
	for _, c := range counts {
		cs = append(cs, c)
	}
	mc := meanOf(cs)
	var vs float64
	for _, c := range cs {
		vs += (c - mc) * (c - mc)
	}
	iod := (vs / float64(len(cs))) / mc
	if iod < 2 {
		t.Fatalf("mmpp2 index of dispersion = %.2f, want > 2 (bursty)", iod)
	}
}

func TestFlashFactorStatistics(t *testing.T) {
	const base, factor, at, dur = 2.0, 10.0, 100.0, 50.0
	proc := Modulated{Base: Poisson{Rate: base}, Factor: FlashFactor(at, dur, factor)}
	rng := stats.NewRNG(19)
	now := 0.0
	var inFlash, before float64
	for now < 300 {
		g := proc.Next(now, rng)
		now += g
		switch {
		case now >= at && now < at+dur:
			inFlash++
		case now < at:
			before++
		}
	}
	// Inside the window the rate is base·factor = 20/s over 50s ≈ 1000
	// arrivals; outside it is 2/s. Loose bands: this is a smoke-level pin.
	within(t, "flash in-window arrivals", inFlash, base*factor*dur, 0.10)
	within(t, "flash pre-window arrivals", before, base*at, 0.25)
}

// TestCostDistributionStatistics pins the heavy-tailed query-cost draws the
// lab scenarios use (exponential baseline, Pareto heavy tail).
func TestCostDistributionStatistics(t *testing.T) {
	rng := stats.NewRNG(23)
	const n = 300_000

	exp := stats.Exponential{Rate: 0.1} // mean 10
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = exp.Sample(rng)
	}
	within(t, "exponential cost mean", meanOf(xs), 10, 0.02)
	within(t, "exponential cost p99", quantileOf(xs, 0.99), 10*math.Log(100), 0.05)

	par := stats.Pareto{Xm: 1, Alpha: 2.5} // mean xm·α/(α-1) = 5/3
	for i := range xs {
		xs[i] = par.Sample(rng)
	}
	within(t, "pareto cost mean", meanOf(xs), par.Mean(), 0.03)
	// Tail index check: empirical P[X > x] should track (xm/x)^α.
	for _, x := range []float64{2, 5, 10} {
		var exceed float64
		for _, v := range xs {
			if v > x {
				exceed++
			}
		}
		within(t, fmt.Sprintf("pareto tail P[X>%g]", x), exceed/float64(n), math.Pow(1/x, 2.5), 0.15)
	}
}

func TestArrivalsStrings(t *testing.T) {
	m, _ := NewMMPP2(1, 50, 20, 5)
	for _, proc := range []Arrivals{
		Poisson{Rate: 2},
		m,
		Modulated{Base: Poisson{Rate: 2}, Factor: FlashFactor(1, 1, 2)},
	} {
		if s := proc.String(); s == "" || strings.ContainsAny(s, "\n\t") {
			t.Fatalf("bad String() %q", s)
		}
	}
}

func TestArrivalsEdgeCases(t *testing.T) {
	rng := stats.NewRNG(1)
	if g := (Poisson{Rate: 0}).Next(0, rng); !math.IsInf(g, 1) {
		t.Fatalf("zero-rate poisson gap = %v, want +Inf", g)
	}
	if g := (Modulated{Base: Poisson{Rate: 1}, Factor: func(float64) float64 { return 0 }}).Next(0, rng); !math.IsInf(g, 1) {
		t.Fatalf("zero-factor modulated gap = %v, want +Inf", g)
	}
	if _, err := NewMMPP2(-1, 1, 1, 1); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := NewMMPP2(1, 0, 1, 1); err == nil {
		t.Fatal("zero dwell accepted")
	}
	if _, err := NewMMPP2(0, 1, 0, 1); err == nil {
		t.Fatal("all-zero rates accepted")
	}
}
