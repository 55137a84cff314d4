package satisfaction

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"sbqa/internal/model"
)

func TestRegistryLazyTrackers(t *testing.T) {
	r := NewRegistry(10)
	if r.Window() != 10 {
		t.Errorf("Window = %d", r.Window())
	}
	if got := r.ConsumerSatisfaction(3); got != Neutral {
		t.Errorf("unknown consumer = %v, want Neutral", got)
	}
	if got := r.ProviderSatisfaction(4); got != Neutral {
		t.Errorf("unknown provider = %v, want Neutral", got)
	}
	c := r.Consumer(3)
	if c == nil || r.Consumer(3) != c {
		t.Error("Consumer should create then reuse the tracker")
	}
	p := r.Provider(4)
	if p == nil || r.Provider(4) != p {
		t.Error("Provider should create then reuse the tracker")
	}
	if len(r.ConsumerIDs()) != 1 || len(r.ProviderIDs()) != 1 {
		t.Error("ID listings wrong")
	}
}

func TestRegistryDefaultWindow(t *testing.T) {
	r := NewRegistry(0)
	if r.Window() != DefaultWindow {
		t.Errorf("Window = %d, want %d", r.Window(), DefaultWindow)
	}
}

func TestRegistryForget(t *testing.T) {
	r := NewRegistry(5)
	r.Consumer(1).Record(1, 1, 1)
	r.Provider(2).Record(1, true)
	r.ForgetConsumer(1)
	r.ForgetProvider(2)
	if got := r.ConsumerSatisfaction(1); got != Neutral {
		t.Errorf("forgotten consumer = %v", got)
	}
	if got := r.ProviderSatisfaction(2); got != Neutral {
		t.Errorf("forgotten provider = %v", got)
	}
	r.Consumer(7).Record(0.2, 1, 1)
	r.ForgetConsumer(7)
	if got := r.ConsumerSatisfaction(7); got != Neutral {
		t.Error("ForgetConsumer did not forget")
	}
	r.Provider(8).Record(1, true)
	r.ForgetProvider(8)
	if got := r.ProviderSatisfaction(8); got != Neutral {
		t.Error("ForgetProvider did not forget")
	}
}

func TestRegistryRecordAllocation(t *testing.T) {
	r := NewRegistry(10)
	a := &model.Allocation{
		Query:              model.Query{ID: 1, Consumer: 0, N: 1, Work: 1},
		Selected:           []model.ProviderID{10},
		Proposed:           []model.ProviderID{10, 11},
		ConsumerIntentions: []model.Intention{1, -1},
		ProviderIntentions: []model.Intention{0, 1},
	}
	r.RecordAllocation(a, nil)

	// Consumer got its preferred provider: obtained = unit(1) = 1.
	if got := r.ConsumerSatisfaction(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("consumer δs = %v, want 1", got)
	}
	// Provider 10 performed a query it was neutral about: unit(0) = 0.5.
	if got := r.ProviderSatisfaction(10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("provider 10 δs = %v, want 0.5", got)
	}
	// Provider 11 was proposed but not selected → Definition 2 gives 0.
	if got := r.ProviderSatisfaction(11); got != 0 {
		t.Errorf("provider 11 δs = %v, want 0", got)
	}

	// The walk reads what the per-ID reads read, every participant once.
	sats := r.AppendConsumerReadings(nil)
	if len(sats) != 1 || sats[0].ID != 0 || sats[0].Sat != r.ConsumerSatisfaction(0) {
		t.Errorf("AppendConsumerReadings = %v", sats)
	}
	psats := r.AppendProviderReadings(make([]Reading[model.ProviderID], 1, 3))
	if len(psats) != 3 || psats[0] != (Reading[model.ProviderID]{}) {
		t.Fatalf("AppendProviderReadings = %v, want the one reading dst held and two appended", psats)
	}
	got := psats[1:]
	slices.SortFunc(got, func(a, b Reading[model.ProviderID]) int { return cmp.Compare(a.ID, b.ID) })
	if got[0].ID != 10 || got[1].ID != 11 || got[0].Sat != r.ProviderSatisfaction(10) || got[1].Sat != r.ProviderSatisfaction(11) {
		t.Errorf("AppendProviderReadings = %v, want providers 10 and 11 with their δs", psats)
	}
}

func TestRegistryRecordAllocationWithCandidates(t *testing.T) {
	r := NewRegistry(10)
	a := &model.Allocation{
		Query:              model.Query{ID: 2, Consumer: 5, N: 1, Work: 1},
		Selected:           []model.ProviderID{1},
		Proposed:           []model.ProviderID{1},
		ConsumerIntentions: []model.Intention{0},
		ProviderIntentions: []model.Intention{1},
	}
	// Full candidate set had a much better provider (intention 1) that the
	// allocator did not even propose.
	candidates := []model.Intention{0, 1}
	r.RecordAllocation(a, candidates)
	tr := r.Consumer(5)
	// obtained = 0.5, best over candidates = 1 → allocation satisfaction 0.5.
	if got := tr.AllocationSatisfaction(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("AllocationSatisfaction = %v, want 0.5", got)
	}
}

func TestRegistryUnallocatedQueryDissatisfies(t *testing.T) {
	r := NewRegistry(10)
	a := &model.Allocation{
		Query:    model.Query{ID: 3, Consumer: 2, N: 2, Work: 1},
		Selected: nil,
		Proposed: nil,
	}
	r.RecordAllocation(a, []model.Intention{1, 1})
	if got := r.ConsumerSatisfaction(2); got != 0 {
		t.Errorf("unallocated query δs = %v, want 0", got)
	}
}
