package mediator

import (
	"testing"

	"sbqa/internal/alloc"
	"sbqa/internal/event"
	"sbqa/internal/model"
)

func TestAllocationObserverSeesCompletedAllocation(t *testing.T) {
	var seen []*model.Allocation
	var candCounts []int
	m := New(alloc.NewCapacity(), Config{
		Window: 10,
		Observer: event.Funcs{Allocation: func(a *model.Allocation, candidates int) {
			seen = append(seen, a)
			candCounts = append(candCounts, candidates)
		}},
	})
	m.RegisterConsumer(&fakeConsumer{id: 0})
	m.RegisterProvider(&fakeProvider{id: 1})
	m.RegisterProvider(&fakeProvider{id: 2})

	for i := int64(0); i < 3; i++ {
		if _, err := m.Mediate(bg, 0, q(i, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("hook fired %d times, want 3", len(seen))
	}
	for i, a := range seen {
		if len(a.Selected) != 1 {
			t.Errorf("trace %d selected %v", i, a.Selected)
		}
		if candCounts[i] != 2 {
			t.Errorf("trace %d candidates = %d, want 2", i, candCounts[i])
		}
		// Backfilled intentions are visible to the hook.
		if len(a.ConsumerIntentions) != len(a.Proposed) {
			t.Errorf("trace %d intentions incomplete", i)
		}
	}
}

func TestAllocationObserverNotFiredOnFailure(t *testing.T) {
	fired := false
	m := New(alloc.NewCapacity(), Config{
		Window:   10,
		Observer: event.Funcs{Allocation: func(*model.Allocation, int) { fired = true }},
	})
	m.RegisterConsumer(&fakeConsumer{id: 0})
	if _, err := m.Mediate(bg, 0, q(1, 0, 1)); err == nil {
		t.Fatal("expected failure with no providers")
	}
	if fired {
		t.Error("hook fired for a failed mediation")
	}
}
