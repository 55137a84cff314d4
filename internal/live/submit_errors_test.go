package live

import (
	"context"
	"errors"
	"testing"

	"sbqa/internal/mediator"
	"sbqa/internal/model"
)

// TestSubmitErrorPaths: a success, an unregistered consumer and a class
// nobody serves, submitted one after another — each ticket carries its own
// failure mode.
func TestSubmitErrorPaths(t *testing.T) {
	eng := mustEngine(t, WithWindow(10), capacityPolicy)
	w, err := NewWorker(0, 1000, 16, func(model.Query) model.Intention { return 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetClasses(0) // class-restricted: class-5 queries find no candidates
	eng.RegisterWorker(w)
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})

	results := make(chan Result, 4)
	queries := []model.Query{
		{Consumer: 0, Class: 0, N: 1, Work: 0.1}, // succeeds
		{Consumer: 9, Class: 0, N: 1, Work: 0.1}, // unregistered consumer
		{Consumer: 0, Class: 5, N: 1, Work: 0.1}, // no candidates
	}
	allocs, errs := submitAll(context.Background(), eng, queries, results)

	if errs[0] != nil || allocs[0] == nil || len(allocs[0].Selected) != 1 {
		t.Fatalf("entry 0: alloc %v err %v, want clean success", allocs[0], errs[0])
	}
	if errs[1] == nil || allocs[1] != nil {
		t.Fatalf("entry 1: alloc %v err %v, want unregistered-consumer error", allocs[1], errs[1])
	}
	if errors.Is(errs[1], mediator.ErrNoCandidates) || errors.Is(errs[1], ErrDispatch) {
		t.Errorf("entry 1 err %v must be neither ErrNoCandidates nor ErrDispatch", errs[1])
	}
	if !errors.Is(errs[2], mediator.ErrNoCandidates) {
		t.Fatalf("entry 2 err = %v, want ErrNoCandidates", errs[2])
	}
	if allocs[2] != nil {
		t.Errorf("entry 2 alloc = %v, want nil", allocs[2])
	}
	<-results // the successful entry still executes
}

// TestSubmitBatchCanceledContext: a done context rejects every ticket in
// flight with the bare context error before mediation — no allocation is
// produced and nothing reads as a dispatch failure.
func TestSubmitBatchCanceledContext(t *testing.T) {
	eng := mustEngine(t, WithWindow(10), capacityPolicy)
	w, err := NewWorker(0, 1000, 16, func(model.Query) model.Intention { return 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	eng.RegisterWorker(w)
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qs := []model.Query{{Consumer: 0, N: 1, Work: 0.1}, {Consumer: 0, N: 1, Work: 0.1}}
	allocs, errs := submitAll(ctx, eng, qs, nil)
	for i := range qs {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("entry %d err = %v, want context.Canceled", i, errs[i])
		}
		if errors.Is(errs[i], ErrDispatch) {
			t.Errorf("entry %d err = %v: a canceled mediation must not read as a dispatch failure", i, errs[i])
		}
		if allocs[i] != nil {
			t.Errorf("entry %d allocation = %v, want nil (mediation never ran)", i, allocs[i])
		}
	}
}

// TestSubmitBatchStaleSelection: churn that empties every selection yields a
// *DispatchError wrapping mediator.ErrStaleSelection with a nil allocation
// and an empty accepted set (nothing reached any worker: the retry is clean).
func TestSubmitBatchStaleSelection(t *testing.T) {
	eng := staleEngine(t)
	eng.RegisterProvider(&constProvider{id: 1, pi: 0.5})
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})

	allocs, errs := submitAll(context.Background(), eng, []model.Query{{Consumer: 0, N: 1, Work: 1}}, nil)
	if !errors.Is(errs[0], ErrDispatch) || !errors.Is(errs[0], mediator.ErrStaleSelection) {
		t.Fatalf("err = %v, want ErrDispatch wrapping ErrStaleSelection", errs[0])
	}
	var de *DispatchError
	if !errors.As(errs[0], &de) {
		t.Fatalf("err %T is not *DispatchError", errs[0])
	}
	if len(de.Accepted) != 0 || len(de.Failed) != 0 {
		t.Errorf("stale selection must have empty partitions, got accepted=%v failed=%v", de.Accepted, de.Failed)
	}
	if allocs[0] != nil {
		t.Errorf("alloc = %v, want nil on stale selection", allocs[0])
	}
}
