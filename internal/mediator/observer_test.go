package mediator

import (
	"errors"
	"testing"

	"sbqa/internal/alloc"
	"sbqa/internal/event"
	"sbqa/internal/model"
)

// TestMediatorObserverEvents: the typed Observer sees every mediation
// outcome — successes with the candidate count, and each rejection with its
// reason.
func TestMediatorObserverEvents(t *testing.T) {
	type rejection struct {
		q      model.Query
		reason error
	}
	var allocs int
	var candidates int
	var rejects []rejection
	m := New(alloc.NewCapacity(), Config{
		Window: 10,
		Observer: event.Funcs{
			Allocation: func(a *model.Allocation, c int) { allocs++; candidates = c },
			Rejection:  func(q model.Query, reason error) { rejects = append(rejects, rejection{q, reason}) },
		},
	})
	m.RegisterConsumer(&fakeConsumer{id: 0})
	for i := 0; i < 3; i++ {
		m.RegisterProvider(&fakeProvider{id: model.ProviderID(i), intention: 0.5})
	}

	if _, err := m.Mediate(bg, 0, model.Query{Consumer: 0, N: 1, Work: 1}); err != nil {
		t.Fatal(err)
	}
	if allocs != 1 {
		t.Fatalf("allocs=%d, want 1", allocs)
	}
	if candidates != 3 {
		t.Errorf("candidates = %d, want 3", candidates)
	}

	// Rejection 1: malformed query (validation).
	if _, err := m.Mediate(bg, 0, model.Query{Consumer: 0, N: 0, Work: 1}); err == nil {
		t.Fatal("want validation error")
	}
	// Rejection 2: unregistered consumer.
	if _, err := m.Mediate(bg, 0, model.Query{Consumer: 9, N: 1, Work: 1}); err == nil {
		t.Fatal("want unregistered-consumer error")
	}
	// Rejection 3: no candidates.
	for i := 0; i < 3; i++ {
		m.UnregisterProvider(model.ProviderID(i))
	}
	if _, err := m.Mediate(bg, 0, model.Query{Consumer: 0, N: 1, Work: 1}); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}

	if len(rejects) != 3 {
		t.Fatalf("rejections = %d, want 3", len(rejects))
	}
	if !errors.Is(rejects[2].reason, ErrNoCandidates) {
		t.Errorf("rejection 3 reason = %v, want ErrNoCandidates", rejects[2].reason)
	}
	if rejects[1].q.Consumer != 9 {
		t.Errorf("rejection 2 query consumer = %d, want 9", rejects[1].q.Consumer)
	}
	if allocs != 1 {
		t.Errorf("allocs moved to %d on failures", allocs)
	}
}
