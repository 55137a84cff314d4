package satisfaction

import (
	"math"
	"testing"
	"testing/quick"

	"sbqa/internal/model"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestConsumerQuerySatisfactionEquation1(t *testing.T) {
	tests := []struct {
		name      string
		n         int
		performed []model.Intention
		want      float64
	}{
		{"no-results", 2, nil, 0},
		{"one-of-one-max", 1, []model.Intention{1}, 1},
		{"one-of-one-min", 1, []model.Intention{-1}, 0},
		{"one-of-one-neutral", 1, []model.Intention{0}, 0.5},
		{"two-of-two", 2, []model.Intention{1, 0}, 0.75},
		{"one-of-two", 2, []model.Intention{1}, 0.5},
		{"over-allocation-capped", 1, []model.Intention{1, 1}, 1},
		{"n-zero-repaired", 0, []model.Intention{0}, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ConsumerQuerySatisfaction(tt.n, tt.performed); !almostEqual(got, tt.want) {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestConsumerQuerySatisfactionBounds(t *testing.T) {
	f := func(raw []float64, n uint8) bool {
		ints := make([]model.Intention, len(raw))
		for i, v := range raw {
			ints[i] = model.Intention(math.Mod(v, 1)).Clamp()
		}
		s := ConsumerQuerySatisfaction(int(n%5)+1, ints)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBestQuerySatisfaction(t *testing.T) {
	cands := []model.Intention{-1, 0, 0.5, 1}
	// Best single allocation: the intention-1 provider → unit 1.
	if got := BestQuerySatisfaction(1, cands); !almostEqual(got, 1) {
		t.Errorf("n=1: got %v", got)
	}
	// Best two: units 1 and 0.75 → mean over n=2 is (1+0.75)/2.
	if got := BestQuerySatisfaction(2, cands); !almostEqual(got, 0.875) {
		t.Errorf("n=2: got %v", got)
	}
	// n exceeding candidates: only 4 units available over n=5.
	want := (0.0 + 0.5 + 0.75 + 1.0) / 5
	if got := BestQuerySatisfaction(5, cands); !almostEqual(got, want) {
		t.Errorf("n=5: got %v, want %v", got, want)
	}
	if got := BestQuerySatisfaction(1, nil); got != 0 {
		t.Errorf("empty candidates: got %v", got)
	}
}

func TestBestDominatesObtained(t *testing.T) {
	// Whatever subset performs, best-achievable must dominate obtained.
	f := func(raw []float64, pick uint) bool {
		if len(raw) == 0 {
			return true
		}
		cands := make([]model.Intention, len(raw))
		for i, v := range raw {
			cands[i] = model.Intention(math.Mod(v, 1)).Clamp()
		}
		n := 2
		// Pick an arbitrary subset of size ≤ n as "performed".
		performed := make([]model.Intention, 0, n)
		for i := 0; i < len(cands) && len(performed) < n; i++ {
			if (pick>>uint(i))&1 == 1 {
				performed = append(performed, cands[i])
			}
		}
		return BestQuerySatisfaction(n, cands) >= ConsumerQuerySatisfaction(n, performed)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConsumerTrackerDefinition1(t *testing.T) {
	tr := NewConsumer(3)
	if got := tr.Satisfaction(); got != Neutral {
		t.Errorf("cold-start satisfaction = %v, want %v", got, Neutral)
	}
	tr.Record(1, 1, 1)
	tr.Record(0, 1, 0.5)
	if got := tr.Satisfaction(); !almostEqual(got, 0.5) {
		t.Errorf("mean of {1,0} = %v", got)
	}
	tr.Record(0.5, 0.5, 0.5)
	if got := tr.Satisfaction(); !almostEqual(got, 0.5) {
		t.Errorf("mean of {1,0,0.5} = %v", got)
	}
	// Window slides: the fourth record evicts the first (value 1).
	tr.Record(0.2, 1, 0.2)
	want := (0 + 0.5 + 0.2) / 3
	if got := tr.Satisfaction(); !almostEqual(got, want) {
		t.Errorf("after eviction = %v, want %v", got, want)
	}
	if tr.Interactions() != 3 || tr.k != 3 {
		t.Errorf("Interactions/Window = %d/%d", tr.Interactions(), tr.k)
	}
}

func TestConsumerTrackerClamping(t *testing.T) {
	tr := NewConsumer(2)
	tr.Record(7, -3, math.NaN())
	if got := tr.Satisfaction(); got != 1 {
		t.Errorf("clamped obtained = %v, want 1", got)
	}
	if got := tr.Adequation(); got != 0 {
		t.Errorf("NaN adequation should clamp to 0, got %v", got)
	}
}

func TestConsumerTrackerAllocationSatisfaction(t *testing.T) {
	tr := NewConsumer(10)
	if got := tr.AllocationSatisfaction(); got != Neutral {
		t.Errorf("cold start = %v", got)
	}
	tr.Record(0.4, 0.8, 0.5)
	if got := tr.AllocationSatisfaction(); !almostEqual(got, 0.5) {
		t.Errorf("0.4/0.8 = %v", got)
	}
	tr.Record(0.8, 0.8, 0.5)
	if got := tr.AllocationSatisfaction(); !almostEqual(got, 1.2/1.6) {
		t.Errorf("ratio of sums = %v", got)
	}
	// best = 0 everywhere → mediator did all that was possible.
	tr2 := NewConsumer(10)
	tr2.Record(0, 0, 0)
	if got := tr2.AllocationSatisfaction(); got != 1 {
		t.Errorf("0/0 case = %v, want 1", got)
	}
}

func TestConsumerRecordQuery(t *testing.T) {
	tr := NewConsumer(10)
	cands := []model.Intention{1, 0, -1}
	tr.RecordQuery(1, []model.Intention{0}, cands)
	// obtained = 0.5, best = 1, adequation = (1+0.5+0)/3 = 0.5
	if got := tr.Satisfaction(); !almostEqual(got, 0.5) {
		t.Errorf("Satisfaction = %v", got)
	}
	if got := tr.AllocationSatisfaction(); !almostEqual(got, 0.5) {
		t.Errorf("AllocationSatisfaction = %v", got)
	}
	if got := tr.Adequation(); !almostEqual(got, 0.5) {
		t.Errorf("Adequation = %v", got)
	}
}

func TestProviderTrackerDefinition2(t *testing.T) {
	tr := NewProvider(4)
	if got := tr.Satisfaction(); got != Neutral {
		t.Errorf("cold-start = %v, want Neutral", got)
	}
	// Proposed but never performed → Definition 2 says exactly 0.
	tr.Record(1, false)
	if got := tr.Satisfaction(); got != 0 {
		t.Errorf("proposed-not-performed = %v, want 0", got)
	}
	// Performs a liked query: (1+1)/2 = 1 over the single performed one.
	tr.Record(1, true)
	if got := tr.Satisfaction(); !almostEqual(got, 1) {
		t.Errorf("after performing liked = %v", got)
	}
	// Performs a disliked query too: mean of unit(1)=1 and unit(-1)=0.
	tr.Record(-1, true)
	if got := tr.Satisfaction(); !almostEqual(got, 0.5) {
		t.Errorf("mixed performed = %v", got)
	}
	if tr.performed != 2 || tr.n != 3 {
		t.Errorf("performed %d of %d proposals, want 2 of 3", tr.performed, tr.n)
	}
}

func TestProviderTrackerWindowEviction(t *testing.T) {
	tr := NewProvider(2)
	tr.Record(1, true)  // will be evicted
	tr.Record(0, false) // stays
	tr.Record(0, true)  // stays; unit(0) = 0.5
	if got := tr.Satisfaction(); !almostEqual(got, 0.5) {
		t.Errorf("after eviction = %v, want 0.5", got)
	}
	if tr.Interactions() != 2 {
		t.Errorf("Interactions = %d, want 2", tr.Interactions())
	}
}

func TestProviderAdequationAndAllocation(t *testing.T) {
	tr := NewProvider(10)
	if got := tr.Adequation(); got != Neutral {
		t.Errorf("cold adequation = %v", got)
	}
	if got := tr.AllocationSatisfaction(); got != Neutral {
		t.Errorf("cold alloc-sat = %v", got)
	}
	tr.Record(1, true)   // unit 1, performed
	tr.Record(0, false)  // unit 0.5, proposed only
	tr.Record(-1, false) // unit 0, proposed only
	// adequation = (1+0.5+0)/3 = 0.5; satisfaction = 1; ratio capped at 1.
	if got := tr.Adequation(); !almostEqual(got, 0.5) {
		t.Errorf("Adequation = %v", got)
	}
	if got := tr.AllocationSatisfaction(); got != 1 {
		t.Errorf("AllocationSatisfaction = %v, want 1 (capped)", got)
	}
	// All-dislike stream: adequation 0 → allocation satisfaction 1 (nothing
	// better was possible).
	tr2 := NewProvider(10)
	tr2.Record(-1, false)
	if got := tr2.AllocationSatisfaction(); got != 1 {
		t.Errorf("zero-adequation alloc-sat = %v", got)
	}
}

func TestProviderSatisfactionBoundsProperty(t *testing.T) {
	f := func(raw []float64, mask uint64) bool {
		tr := NewProvider(16)
		for i, v := range raw {
			pi := model.Intention(math.Mod(v, 1)).Clamp()
			tr.Record(pi, (mask>>uint(i%64))&1 == 1)
		}
		s := tr.Satisfaction()
		a := tr.Adequation()
		al := tr.AllocationSatisfaction()
		return s >= 0 && s <= 1 && a >= 0 && a <= 1 && al >= 0 && al <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrackerWindowDefaults(t *testing.T) {
	if NewConsumer(0).k != DefaultWindow {
		t.Error("consumer default window not applied")
	}
	if NewProvider(-3).k != DefaultWindow {
		t.Error("provider default window not applied")
	}
}
