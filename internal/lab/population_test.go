package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"sbqa/internal/stats"
)

// volunteerWorld builds, without running it, the default volunteer world of
// n volunteers under seed.
func volunteerWorld(t *testing.T, n int, seed uint64) *world {
	t.Helper()
	return builtWorld(t, Volunteering(n, 100, seed))
}

// offeredLoad is w's Σ rate·E[work]·replication / Σ capacity.
func offeredLoad(w *world) float64 {
	var demand, capacity float64
	for _, p := range w.projects {
		demand += p.arrivalRate * volunteerWork * float64(p.replication)
	}
	for _, v := range w.providers {
		capacity += v.capacity
	}
	return demand / capacity
}

// TestGenerateValidation: a volunteer population needs at least one
// volunteer. The query work mean is the fixed volunteerWork, so there is no
// work distribution left to validate.
func TestGenerateValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := Volunteering(n, 100, 1).normalized(); err == nil {
			t.Errorf("%d volunteers accepted", n)
		}
	}
	if _, err := Volunteering(1, 100, 1).normalized(); err != nil {
		t.Errorf("one volunteer rejected: %v", err)
	}
}

func TestGenerateDefaults(t *testing.T) {
	w := volunteerWorld(t, 20, 1)
	if len(w.projects) != 3 {
		t.Fatalf("default projects = %d, want 3", len(w.projects))
	}
	if len(w.providers) != 20 {
		t.Fatalf("volunteers = %d", len(w.providers))
	}
	for _, v := range w.providers {
		if v.capacity < 0.5 || v.capacity >= 1.5 {
			t.Fatalf("volunteer %d capacity %v outside [0.5, 1.5)", v.id, v.capacity)
		}
		if v.vol.priceFactor < 0.8 || v.vol.priceFactor > 1.2 {
			t.Fatalf("price factor %v out of range", v.vol.priceFactor)
		}
		if len(v.vol.prefs) != 3 {
			t.Fatalf("project prefs %v", v.vol.prefs)
		}
		for _, p := range v.vol.prefs {
			if p < -1 || p > 1 {
				t.Fatalf("pref %v out of range", p)
			}
		}
	}
	for _, p := range w.projects {
		if p.arrivalRate <= 0 {
			t.Fatalf("project %s rate %v", p.name, p.arrivalRate)
		}
		if len(p.prefs) != 20 {
			t.Fatalf("volunteer prefs %d", len(p.prefs))
		}
		if p.replication != 2 || p.quorum != 2 || p.delayTarget != 30 {
			t.Fatalf("project %s: replication %d quorum %d delay target %v", p.name, p.replication, p.quorum, p.delayTarget)
		}
	}
}

func TestLoadFactorHitsTarget(t *testing.T) {
	for _, rho := range []float64{0.3, 0.7, 0.9} {
		sc := Volunteering(50, 100, 7)
		sc.Workload.Volunteers.Load = rho
		if got := offeredLoad(builtWorld(t, sc)); math.Abs(got-rho) > 1e-9 {
			t.Errorf("offered load = %v, want %v", got, rho)
		}
	}
}

func TestArrivalShares(t *testing.T) {
	w := volunteerWorld(t, 30, 3)
	// Shares 0.5/0.3/0.2 of the total rate.
	total := 0.0
	for _, p := range w.projects {
		total += p.arrivalRate
	}
	for i, want := range []float64{0.5, 0.3, 0.2} {
		if got := w.projects[i].arrivalRate / total; math.Abs(got-want) > 1e-9 {
			t.Errorf("project %d share = %v, want %v", i, got, want)
		}
	}
}

func TestPopularityOrdering(t *testing.T) {
	// Mean volunteer preference must be ordered popular > normal > unpopular.
	w := volunteerWorld(t, 500, 11)
	n := len(w.providers)
	means := make([]float64, 3)
	positives := make([]int, 3)
	for _, v := range w.providers {
		for i, p := range v.vol.prefs {
			means[i] += p / float64(n)
			if p > 0 {
				positives[i]++
			}
		}
	}
	if !(means[0] > means[1] && means[1] > means[2]) {
		t.Errorf("popularity ordering violated: %v", means)
	}
	// Popular project: the majority of volunteers lean positive (its fans
	// plus most generalists); the unpopular one is favoured by few.
	if positives[0] < n/2 {
		t.Errorf("popular project liked by only %d/%d volunteers", positives[0], n)
	}
	if positives[2] > n/3 {
		t.Errorf("unpopular project liked by %d/%d volunteers, want a small fraction", positives[2], n)
	}
}

func TestFansPreferExactlyOneProject(t *testing.T) {
	w := volunteerWorld(t, 300, 21)
	fans := 0
	for _, v := range w.providers {
		strong := 0
		for _, p := range v.vol.prefs {
			if p >= 0.5 {
				strong++
			}
		}
		switch {
		case strong == 1:
			fans++
		case strong > 1:
			// Generalists can stray above 0.5 only if the draw allows it;
			// the generalist distribution tops out at 0.6.
			for _, p := range v.vol.prefs {
				if p > 0.6 {
					t.Fatalf("volunteer %d has multiple strong prefs: %v", v.id, v.vol.prefs)
				}
			}
		}
	}
	if fans < 200 {
		t.Errorf("only %d/300 volunteers are fans; affinity model broken", fans)
	}
}

func TestConsumerPrefsTrackCapacity(t *testing.T) {
	w := volunteerWorld(t, 200, 13)
	// Correlation between capacity and project 0's preference should be
	// clearly positive.
	caps := make([]float64, len(w.providers))
	for i, v := range w.providers {
		caps[i] = v.capacity
	}
	prefs := w.projects[0].prefs
	capMean, prefMean := stats.MeanOf(caps), stats.MeanOf(prefs)
	var cov, capVar, prefVar float64
	for i := range caps {
		dc, dp := caps[i]-capMean, prefs[i]-prefMean
		cov += dc * dp
		capVar += dc * dc
		prefVar += dp * dp
	}
	if corr := cov / math.Sqrt(capVar*prefVar); corr < 0.5 {
		t.Errorf("capacity-preference correlation = %v, want > 0.5", corr)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := volunteerWorld(t, 40, 99), volunteerWorld(t, 40, 99)
	for i, v := range a.providers {
		if v.capacity != b.providers[i].capacity {
			t.Fatal("capacities diverged")
		}
		for j, p := range v.vol.prefs {
			if p != b.providers[i].vol.prefs[j] {
				t.Fatal("prefs diverged")
			}
		}
	}
	c := volunteerWorld(t, 40, 100)
	same := true
	for i, v := range a.providers {
		if v.capacity != c.providers[i].capacity {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical capacities")
	}
}

func TestNegativeSharesRepaired(t *testing.T) {
	sc := Volunteering(10, 100, 5)
	sc.Workload.Volunteers.Projects = []ProjectSpec{
		{Name: "a", ArrivalShare: -1, Replication: 1, DelayTarget: 10},
		{Name: "b", ArrivalShare: 0, Replication: 1, DelayTarget: 10},
	}
	w := builtWorld(t, sc)
	if a, b := w.projects[0].arrivalRate, w.projects[1].arrivalRate; math.Abs(a-b) > 1e-9 {
		t.Errorf("invalid shares should fall back to equal: %v vs %v", a, b)
	}
}

// poissonClass is a class state at rate with the given flash crowds.
func poissonClass(rate float64, flashes ...FlashSpec) *classState {
	return &classState{spec: ClassSpec{Rate: rate}, flashes: flashes}
}

// TestPoissonMatchesHistoricalInlineDraw pins the class gap rule's draw
// contract outside any flash crowd: one ExpFloat64 per gap, divided by the
// rate. If this ever changes, every recorded finding and golden trajectory
// silently shifts.
func TestPoissonMatchesHistoricalInlineDraw(t *testing.T) {
	a, b := stats.NewRNG(42), stats.NewRNG(42)
	cs := poissonClass(3.5)
	for i := range 1000 {
		if got, want := cs.gap(123.0+float64(i), a), b.ExpFloat64()/3.5; got != want {
			t.Fatalf("draw %d: gap = %v, inline pattern = %v", i, got, want)
		}
	}
	if a.State() != b.State() {
		t.Fatalf("rng states diverged: %v vs %v", a.State(), b.State())
	}
}

// sampleGaps replays n gaps of cs from seed, advancing the clock by each.
func sampleGaps(cs *classState, seed uint64, n int) []float64 {
	rng := stats.NewRNG(seed)
	gaps := make([]float64, n)
	now := 0.0
	for i := range gaps {
		gaps[i] = cs.gap(now, rng)
		now += gaps[i]
	}
	return gaps
}

// TestArrivalsGolden pins the byte-exact gap sequences of the class gap
// rule under a fixed seed, hashed over the float64 bit patterns: the draws
// every recorded finding was made with. Regenerate the digests (the test
// prints them on mismatch) only when a draw-sequence change is
// intentional, because it invalidates recorded findings.
func TestArrivalsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cs   *classState
		want string
	}{
		{"poisson", poissonClass(2), "500ded5fb303b2f5"},
		{"flash", poissonClass(2, FlashSpec{At: 10, Duration: 5, Factor: 10}), "f75a8dc66adc9700"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			for i, gap := range sampleGaps(tc.cs, 7, 500) {
				if gap < 0 || math.IsNaN(gap) {
					t.Fatalf("gap %d: invalid %v", i, gap)
				}
				fmt.Fprintf(h, "%x\n", math.Float64bits(gap))
			}
			if got := hex.EncodeToString(h.Sum(nil))[:16]; got != tc.want {
				t.Fatalf("golden gap digest for %s = %q, want %q (update only for intentional draw changes)", tc.name, got, tc.want)
			}
		})
	}
}

// TestArrivalsEdgeCases: a stream that would never emit is not declarable.
// A class rate and a flash factor must be positive.
func TestArrivalsEdgeCases(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN()} {
		sc := smallScenario("edge", 1, sbqaPolicy(1))
		sc.Workload.Classes[0].Rate = rate
		if _, err := sc.normalized(); err == nil {
			t.Errorf("class rate %v accepted", rate)
		}
	}
	for _, factor := range []float64{0, math.NaN()} {
		sc := smallScenario("edge", 1, sbqaPolicy(1))
		sc.Workload.Flash = []FlashSpec{{At: 1, Duration: 1, Factor: factor}}
		if _, err := sc.normalized(); err == nil {
			t.Errorf("flash factor %v accepted", factor)
		}
	}
}

func quantileOf(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[int(q*float64(len(sorted)-1))]
}

func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if rel := math.Abs(got-want) / math.Abs(want); rel > relTol {
		t.Fatalf("%s = %.5g, want %.5g within %.0f%% (off by %.1f%%)", name, got, want, relTol*100, rel*100)
	}
}

func TestPoissonStatistics(t *testing.T) {
	const rate = 4.0
	gaps := sampleGaps(poissonClass(rate), 11, 200_000)
	within(t, "poisson mean gap", stats.MeanOf(gaps), 1/rate, 0.01)
	// Exponential p99 = ln(100)/rate.
	within(t, "poisson p99 gap", quantileOf(gaps, 0.99), math.Log(100)/rate, 0.05)
	// The coefficient of variation of exponential gaps is 1.
	within(t, "poisson gap CV", stats.StdDevOf(gaps)/stats.MeanOf(gaps), 1, 0.03)
}

func TestFlashFactorStatistics(t *testing.T) {
	const base, factor, at, dur = 2.0, 10.0, 100.0, 50.0
	cs := poissonClass(base, FlashSpec{At: at, Duration: dur, Factor: factor})
	rng := stats.NewRNG(19)
	now := 0.0
	var inFlash, before float64
	for now < 300 {
		now += cs.gap(now, rng)
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
// class scenarios declare (exponential baseline, Pareto heavy tail).
func TestCostDistributionStatistics(t *testing.T) {
	rng := stats.NewRNG(23)
	const n = 300_000
	draw := func(spec CostSpec) []float64 {
		d, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = d.Sample(rng)
		}
		return xs
	}

	xs := draw(CostSpec{Kind: "exp", Mean: 10})
	within(t, "exponential cost mean", stats.MeanOf(xs), 10, 0.02)
	within(t, "exponential cost p99", quantileOf(xs, 0.99), 10*math.Log(100), 0.05)

	xs = draw(CostSpec{Kind: "pareto", Xm: 1, Alpha: 2.5}) // mean xm·α/(α-1) = 5/3
	within(t, "pareto cost mean", stats.MeanOf(xs), 5.0/3, 0.03)
	// Tail index check: empirical P[X > x] should track (xm/x)^α.
	for _, x := range []float64{2, 5, 10} {
		var exceed float64
		for _, v := range xs {
			if v > x {
				exceed++
			}
		}
		within(t, fmt.Sprintf("pareto tail P[X>%g]", x), exceed/n, math.Pow(1/x, 2.5), 0.15)
	}
}
