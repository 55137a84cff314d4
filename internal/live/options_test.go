package live

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sbqa/internal/event"
	"sbqa/internal/model"
	"sbqa/internal/policy"
)

// TestNewEngineRejectsInvalidOptions: nonsense option inputs fail NewEngine
// with a descriptive error instead of being silently clamped.
func TestNewEngineRejectsInvalidOptions(t *testing.T) {
	base := WithPolicy(policy.Spec{Kind: policy.SbQA})
	negDeadline := policy.Spec{Kind: policy.SbQA, ParticipantDeadline: policy.Duration(-time.Millisecond)}
	cases := []struct {
		name string
		opt  Option
		want string
	}{
		{"negative concurrency", WithConcurrency(-2), "WithConcurrency(-2)"},
		{"negative queue depth", WithQueueDepth(-1), "WithQueueDepth(-1)"},
		{"negative window", WithWindow(-5), "WithWindow(-5)"},
		{"negative snapshot interval", WithSnapshotInterval(-time.Second), "WithSnapshotInterval"},
		{"negative participant deadline", WithPolicy(negDeadline), "participant_deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(base, tc.opt)
			if err == nil {
				eng.Close()
				t.Fatal("invalid option accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the offending option %q", err, tc.want)
			}
		})
	}
	// Zero values remain valid defaults.
	eng, err := NewEngine(base, WithConcurrency(0), WithQueueDepth(0), WithWindow(0),
		WithSnapshotInterval(0))
	if err != nil {
		t.Fatalf("zero-valued options rejected: %v", err)
	}
	eng.Close()
}

// stallProvider is a registered (non-Worker) provider whose context-aware
// intention call never answers on its own: it waits for release or ctx.
type stallProvider struct {
	id      model.ProviderID
	release chan struct{}
	calls   atomic.Int64
}

func (p *stallProvider) ProviderID() model.ProviderID { return p.id }
func (p *stallProvider) Snapshot(float64) model.ProviderSnapshot {
	return model.ProviderSnapshot{ID: p.id, Capacity: 1}
}
func (p *stallProvider) Intention(model.Query) model.Intention { return 0 }
func (p *stallProvider) Bid(q model.Query) float64             { return q.Work }

func (p *stallProvider) IntentionContext(ctx context.Context, _ model.Query) (model.Intention, error) {
	p.calls.Add(1)
	select {
	case <-p.release:
		return 0.5, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// TestTicketContextCancelsFanout: canceling a ticket's submission context
// while the intention fan-out is in flight fails the ticket with the context
// error — the engine does not sit behind a stalled participant.
func TestTicketContextCancelsFanout(t *testing.T) {
	eng, err := NewEngine(WithWindow(10), WithPolicy(policy.Spec{Kind: policy.SbQA}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sp := &stallProvider{id: 1, release: make(chan struct{})}
	defer close(sp.release)
	eng.RegisterProvider(sp)
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})

	ctx, cancel := context.WithCancel(context.Background())
	tk := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 1})
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var aerr error
	go func() {
		_, aerr = tk.Allocation()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ticket never completed after cancellation")
	}
	if !errors.Is(aerr, context.Canceled) {
		t.Fatalf("ticket err = %v, want context.Canceled", aerr)
	}
	if sp.calls.Load() == 0 {
		t.Error("fan-out never reached the participant")
	}
}

// TestEngineImputationStats: a participant that misses the per-participant
// deadline shows up in ShardStats.Imputations/IntentionTimeouts and reaches
// the user observer as a typed event.
func TestEngineImputationStats(t *testing.T) {
	var events atomic.Int64
	obs := event.Funcs{IntentionImputed: func(event.Imputation) { events.Add(1) }}
	eng, err := NewEngine(
		WithWindow(10),
		WithPolicy(policy.Spec{Kind: policy.Capacity, ParticipantDeadline: policy.Duration(25 * time.Millisecond)}),
		WithObserver(obs),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sp := &stallProvider{id: 1, release: make(chan struct{})}
	defer close(sp.release)
	eng.RegisterProvider(sp)
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})

	a, aerr := eng.Submit(context.Background(), model.Query{Consumer: 0, N: 1, Work: 1}).Allocation()
	if aerr != nil || a == nil {
		t.Fatalf("Allocation = %v, %v", a, aerr)
	}
	st := eng.Stats()
	if got := imputations(st); got != 1 {
		t.Errorf("imputations = %d, want 1", got)
	}
	if got := intentionTimeouts(st); got != 1 {
		t.Errorf("intention timeouts = %d, want 1", got)
	}
	if events.Load() != 1 {
		t.Errorf("observer events = %d, want 1", events.Load())
	}
}
