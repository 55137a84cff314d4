package workload

import (
	"math"
	"testing"

	"sbqa/internal/stats"
)

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Volunteers: 0}); err == nil {
		t.Error("zero volunteers accepted")
	}
	if _, err := Generate(Config{Volunteers: 5, WorkDist: stats.Constant{V: 0}, Seed: 1}); err == nil {
		t.Error("zero-mean work accepted")
	}
}

func TestGenerateDefaults(t *testing.T) {
	pop, err := Generate(Config{Volunteers: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.Projects) != 3 {
		t.Fatalf("default projects = %d, want 3", len(pop.Projects))
	}
	if len(pop.Volunteers) != 20 {
		t.Fatalf("volunteers = %d", len(pop.Volunteers))
	}
	for _, v := range pop.Volunteers {
		if v.Capacity <= 0 {
			t.Fatalf("volunteer %d capacity %v", v.Index, v.Capacity)
		}
		if v.PriceFactor < 0.8 || v.PriceFactor > 1.2 {
			t.Fatalf("price factor %v out of range", v.PriceFactor)
		}
		if len(v.ProjectPref) != 3 {
			t.Fatalf("project prefs %v", v.ProjectPref)
		}
		for _, p := range v.ProjectPref {
			if p < -1 || p > 1 {
				t.Fatalf("pref %v out of range", p)
			}
		}
	}
	for _, p := range pop.Projects {
		if p.ArrivalRate <= 0 {
			t.Fatalf("project %s rate %v", p.Name, p.ArrivalRate)
		}
		if len(p.VolunteerPref) != 20 {
			t.Fatalf("volunteer prefs %d", len(p.VolunteerPref))
		}
		if p.Replication < 1 || p.DelayTarget <= 0 {
			t.Fatalf("bad project params %+v", p)
		}
	}
}

// offeredLoad is pop's Σ rate·E[work]·replication / Σ capacity.
func offeredLoad(pop *Population) float64 {
	var demand, capacity float64
	for _, p := range pop.Projects {
		demand += p.ArrivalRate * pop.WorkDist.Mean() * float64(p.Replication)
	}
	for _, v := range pop.Volunteers {
		capacity += v.Capacity
	}
	return demand / capacity
}

func TestLoadFactorHitsTarget(t *testing.T) {
	for _, rho := range []float64{0.3, 0.7, 0.9} {
		cfg := DefaultConfig(50, 7)
		cfg.LoadFactor = rho
		pop, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := offeredLoad(pop); math.Abs(got-rho) > 1e-9 {
			t.Errorf("LoadFactor = %v, want %v", got, rho)
		}
	}
}

func TestArrivalShares(t *testing.T) {
	cfg := DefaultConfig(30, 3)
	pop, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Shares 0.5/0.3/0.2 of the total rate.
	total := 0.0
	for _, p := range pop.Projects {
		total += p.ArrivalRate
	}
	wants := []float64{0.5, 0.3, 0.2}
	for i, w := range wants {
		if got := pop.Projects[i].ArrivalRate / total; math.Abs(got-w) > 1e-9 {
			t.Errorf("project %d share = %v, want %v", i, got, w)
		}
	}
}

func TestPopularityOrdering(t *testing.T) {
	// Mean volunteer preference must be ordered popular > normal > unpopular.
	pop, err := Generate(DefaultConfig(500, 11))
	if err != nil {
		t.Fatal(err)
	}
	means := make([]float64, 3)
	for _, v := range pop.Volunteers {
		for i, p := range v.ProjectPref {
			means[i] += p
		}
	}
	for i := range means {
		means[i] /= float64(len(pop.Volunteers))
	}
	if !(means[0] > means[1] && means[1] > means[2]) {
		t.Errorf("popularity ordering violated: %v", means)
	}
	// Popular project: the majority of volunteers lean positive (its fans
	// plus most generalists); the unpopular one is favoured by few.
	positives := make([]int, 3)
	for _, v := range pop.Volunteers {
		for i, p := range v.ProjectPref {
			if p > 0 {
				positives[i]++
			}
		}
	}
	n := len(pop.Volunteers)
	if positives[0] < n/2 {
		t.Errorf("popular project liked by only %d/%d volunteers", positives[0], n)
	}
	if positives[2] > n/3 {
		t.Errorf("unpopular project liked by %d/%d volunteers, want a small fraction", positives[2], n)
	}
}

func TestFansPreferExactlyOneProject(t *testing.T) {
	pop, err := Generate(DefaultConfig(300, 21))
	if err != nil {
		t.Fatal(err)
	}
	fans, generalists := 0, 0
	for _, v := range pop.Volunteers {
		strong := 0
		for _, p := range v.ProjectPref {
			if p >= 0.5 {
				strong++
			}
		}
		switch {
		case strong == 1:
			fans++
		case strong == 0:
			generalists++
		default:
			// Generalists can stray above 0.5 only if the draw allows it;
			// the generalist distribution tops out at 0.6.
			for _, p := range v.ProjectPref {
				if p > 0.6 {
					t.Fatalf("volunteer %d has multiple strong prefs: %v", v.Index, v.ProjectPref)
				}
			}
		}
	}
	if fans < 200 {
		t.Errorf("only %d/300 volunteers are fans; affinity model broken", fans)
	}
}

func TestConsumerPrefsTrackCapacity(t *testing.T) {
	pop, err := Generate(DefaultConfig(200, 13))
	if err != nil {
		t.Fatal(err)
	}
	// Correlation between capacity and project-0 preference should be
	// clearly positive.
	var capMean, prefMean float64
	for _, v := range pop.Volunteers {
		capMean += v.Capacity
		prefMean += pop.Projects[0].VolunteerPref[v.Index]
	}
	n := float64(len(pop.Volunteers))
	capMean /= n
	prefMean /= n
	var cov, capVar, prefVar float64
	for _, v := range pop.Volunteers {
		dc := v.Capacity - capMean
		dp := pop.Projects[0].VolunteerPref[v.Index] - prefMean
		cov += dc * dp
		capVar += dc * dc
		prefVar += dp * dp
	}
	corr := cov / math.Sqrt(capVar*prefVar)
	if corr < 0.5 {
		t.Errorf("capacity-preference correlation = %v, want > 0.5", corr)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultConfig(40, 99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig(40, 99))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Volunteers {
		if a.Volunteers[i].Capacity != b.Volunteers[i].Capacity {
			t.Fatal("capacities diverged")
		}
		for j := range a.Volunteers[i].ProjectPref {
			if a.Volunteers[i].ProjectPref[j] != b.Volunteers[i].ProjectPref[j] {
				t.Fatal("prefs diverged")
			}
		}
	}
	c, err := Generate(DefaultConfig(40, 100))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Volunteers {
		if a.Volunteers[i].Capacity != c.Volunteers[i].Capacity {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical capacities")
	}
}

func TestPopularityString(t *testing.T) {
	if Popular.String() != "popular" || Normal.String() != "normal" || Unpopular.String() != "unpopular" {
		t.Error("Popularity.String broken")
	}
	if Popularity(9).String() == "" {
		t.Error("unknown popularity should still render")
	}
}

func TestNegativeSharesRepaired(t *testing.T) {
	cfg := DefaultConfig(10, 5)
	cfg.Projects = []ProjectSpec{
		{Name: "a", ArrivalShare: -1, Replication: 1, DelayTarget: 10},
		{Name: "b", ArrivalShare: 0, Replication: 1, DelayTarget: 10},
	}
	pop, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pop.Projects[0].ArrivalRate-pop.Projects[1].ArrivalRate) > 1e-9 {
		t.Errorf("invalid shares should fall back to equal: %v vs %v",
			pop.Projects[0].ArrivalRate, pop.Projects[1].ArrivalRate)
	}
}
