package mediator

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"sbqa/internal/core"
	"sbqa/internal/event"
	"sbqa/internal/knbest"
	"sbqa/internal/model"
)

// participantProvider is a fakeProvider that also answers the context-aware
// protocol. delay > 0 sleeps before answering; if ignoreCtx is set the call
// never returns at all (simulating a participant that ignores cancellation),
// otherwise it honors ctx while sleeping.
type participantProvider struct {
	fakeProvider
	ctxIntention model.Intention
	delay        time.Duration
	ignoreCtx    bool
	release      chan struct{} // non-nil: block until closed (or ctx when honored)
}

func (p *participantProvider) IntentionContext(ctx context.Context, _ model.Query) (model.Intention, error) {
	if p.release != nil {
		if p.ignoreCtx {
			<-p.release
		} else {
			select {
			case <-p.release:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
	}
	if p.delay > 0 {
		select {
		case <-time.After(p.delay):
		case <-ctx.Done():
			if !p.ignoreCtx {
				return 0, ctx.Err()
			}
			<-time.After(p.delay)
		}
	}
	return p.ctxIntention, nil
}

// batchConsumer answers the batched consumer protocol from a table; fn, when
// set, overrides the whole call.
type batchConsumer struct {
	id    model.ConsumerID
	likes map[model.ProviderID]model.Intention
	fn    func(ctx context.Context, q model.Query, kn []model.ProviderSnapshot) ([]model.Intention, error)
	calls int
}

func (c *batchConsumer) ConsumerID() model.ConsumerID { return c.id }

// Intention is the synchronous fallback the batched fan-out must not use.
func (c *batchConsumer) Intention(model.Query, model.ProviderSnapshot) model.Intention {
	panic("batched protocol bypassed: synchronous Intention called on a ConsumerParticipant")
}

func (c *batchConsumer) Intentions(ctx context.Context, q model.Query, kn []model.ProviderSnapshot) ([]model.Intention, error) {
	c.calls++
	if c.fn != nil {
		return c.fn(ctx, q, kn)
	}
	out := make([]model.Intention, len(kn))
	for i, snap := range kn {
		out[i] = c.likes[snap.ID]
	}
	return out, nil
}

// collectImputations is an observer recording every imputation event.
type collectImputations struct {
	event.Funcs
	events []event.Imputation
}

func (c *collectImputations) OnIntentionImputed(im event.Imputation) {
	c.events = append(c.events, im)
}

func fullPopulationSbQA() *core.SbQA {
	return core.MustNew(core.Config{KnBest: knbest.Params{K: 0, Kn: 0}, Omega: core.FixedOmega(0.5)})
}

// TestFanoutCollectsParticipantIntentions: context-aware participants answer
// the batch; their values land position-aligned in the allocation, and the
// synchronous fallback paths are never used.
func TestFanoutCollectsParticipantIntentions(t *testing.T) {
	m := New(fullPopulationSbQA(), Config{Window: 10})
	cons := &batchConsumer{id: 0, likes: map[model.ProviderID]model.Intention{1: 0.9, 2: -0.2, 3: 0.4}}
	m.RegisterConsumer(cons)
	m.RegisterProvider(&participantProvider{fakeProvider: fakeProvider{id: 1}, ctxIntention: 0.7})
	m.RegisterProvider(&participantProvider{fakeProvider: fakeProvider{id: 2}, ctxIntention: 0.1})
	m.RegisterProvider(&fakeProvider{id: 3, intention: -0.5}) // in-process peer in the same batch

	a, err := m.Mediate(bg, 0, q(1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	for id, wantCI := range map[model.ProviderID]model.Intention{1: 0.9, 2: -0.2, 3: 0.4} {
		ci, _, ok := intentionFor(a, id)
		if !ok || ci != wantCI {
			t.Errorf("CI for provider %d = %v/%v, want %v", id, ci, ok, wantCI)
		}
	}
	for id, wantPI := range map[model.ProviderID]model.Intention{1: 0.7, 2: 0.1, 3: -0.5} {
		_, pi, ok := intentionFor(a, id)
		if !ok || pi != wantPI {
			t.Errorf("PI for provider %d = %v/%v, want %v", id, pi, ok, wantPI)
		}
	}
	if a.Selected[0] != 1 {
		t.Errorf("Selected = %v, want mutual-interest provider 1", a.Selected)
	}
	if cons.calls != 1 {
		t.Errorf("consumer batch called %d times, want 1", cons.calls)
	}
}

// TestSlowProviderImputedWithinDeadline is the acceptance scenario: one
// deliberately slow participant that ignores cancellation entirely. The
// mediation must complete within the configured per-participant deadline,
// impute the missing intention from the provider's satisfaction registry
// state, and emit a typed imputation event.
func TestSlowProviderImputedWithinDeadline(t *testing.T) {
	const deadline = 50 * time.Millisecond
	obs := &collectImputations{}
	m := New(fullPopulationSbQA(), Config{
		Window:              10,
		ParticipantDeadline: deadline,
		Observer:            obs,
	})
	m.RegisterConsumer(&fakeConsumer{id: 0, likes: map[model.ProviderID]model.Intention{1: 0.5, 2: 0.5}})
	release := make(chan struct{})
	defer close(release)
	slow := &participantProvider{fakeProvider: fakeProvider{id: 1}, release: release, ignoreCtx: true}
	m.RegisterProvider(slow)
	m.RegisterProvider(&fakeProvider{id: 2, intention: 0.3})

	// Seed the slow provider's registry state: historical expressed
	// intention 0.8 → δa = 0.9 → imputed PI = 2·0.9 − 1 = 0.8.
	m.Registry().Provider(1).Record(0.8, true)

	start := time.Now()
	a, err := m.Mediate(bg, 0, q(1, 0, 2))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > deadline+400*time.Millisecond {
		t.Fatalf("mediation took %v, want ≈ the %v participant deadline", elapsed, deadline)
	}
	_, pi, ok := intentionFor(a, 1)
	if !ok || math.Abs(float64(pi)-0.8) > 1e-9 {
		t.Errorf("imputed PI for silent provider = %v/%v, want 0.8 (from δa)", pi, ok)
	}
	if _, pi2, ok := intentionFor(a, 2); !ok || pi2 != 0.3 {
		t.Errorf("responsive provider PI = %v/%v, want 0.3", pi2, ok)
	}
	if len(obs.events) != 1 {
		t.Fatalf("imputation events = %d, want 1 (%v)", len(obs.events), obs.events)
	}
	im := obs.events[0]
	if im.Provider != 1 {
		t.Errorf("event names provider %d, want provider 1", im.Provider)
	}
	if !im.Timeout() || !errors.Is(im.Err, context.DeadlineExceeded) {
		t.Errorf("event err = %v, want deadline exceeded", im.Err)
	}
	if math.Abs(float64(im.Imputed)-0.8) > 1e-9 {
		t.Errorf("event imputed = %v, want 0.8", im.Imputed)
	}
}

// TestSilentConsumerImputed: a consumer webhook that fails has its whole CI
// batch imputed from the consumer's registry adequation, and the event names
// the consumer (Provider = NoProvider).
func TestSilentConsumerImputed(t *testing.T) {
	obs := &collectImputations{}
	m := New(fullPopulationSbQA(), Config{Window: 10, Observer: obs})
	boom := errors.New("webhook down")
	m.RegisterConsumer(&batchConsumer{id: 0, fn: func(context.Context, model.Query, []model.ProviderSnapshot) ([]model.Intention, error) {
		return nil, boom
	}})
	m.RegisterProvider(&fakeProvider{id: 1, intention: 0.5})

	a, err := m.Mediate(bg, 0, q(1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Cold consumer: δa = Neutral (0.5) → imputed CI = 0.
	if ci, _, ok := intentionFor(a, 1); !ok || ci != 0 {
		t.Errorf("imputed CI = %v/%v, want neutral 0", ci, ok)
	}
	if len(obs.events) != 1 {
		t.Fatalf("imputation events = %d, want 1", len(obs.events))
	}
	im := obs.events[0]
	if im.Provider != model.NoProvider || im.Consumer != 0 {
		t.Errorf("event = %+v, want consumer-silent for consumer 0", im)
	}
	if !errors.Is(im.Err, boom) {
		t.Errorf("event err = %v, want the webhook error", im.Err)
	}
	if im.Timeout() {
		t.Error("an explicit webhook failure must not read as a timeout")
	}
}

// TestConsumerBatchLengthMismatchImputed: a misaligned batch response is a
// failed collection, not a partial one.
func TestConsumerBatchLengthMismatchImputed(t *testing.T) {
	obs := &collectImputations{}
	m := New(fullPopulationSbQA(), Config{Window: 10, Observer: obs})
	m.RegisterConsumer(&batchConsumer{id: 0, fn: func(_ context.Context, _ model.Query, kn []model.ProviderSnapshot) ([]model.Intention, error) {
		return make([]model.Intention, len(kn)+1), nil
	}})
	m.RegisterProvider(&fakeProvider{id: 1, intention: 0.5})

	if _, err := m.Mediate(bg, 0, q(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if len(obs.events) != 1 || obs.events[0].Provider != model.NoProvider {
		t.Fatalf("imputation events = %v, want one consumer-silent event", obs.events)
	}
}

// TestMediateCanceledContext: a canceled context rejects the query outright —
// no registry record, no allocation, and the rejection reason is the context
// error.
func TestMediateCanceledContext(t *testing.T) {
	var rejected error
	m := New(fullPopulationSbQA(), Config{
		Window: 10,
		Observer: event.Funcs{
			Rejection: func(_ model.Query, reason error) { rejected = reason },
		},
	})
	m.RegisterConsumer(&fakeConsumer{id: 0, likes: map[model.ProviderID]model.Intention{1: 1}})
	m.RegisterProvider(&fakeProvider{id: 1, intention: 1})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := m.Mediate(ctx, 0, q(1, 0, 1))
	if !errors.Is(err, context.Canceled) || a != nil {
		t.Fatalf("Mediate = %v, %v; want nil allocation and context.Canceled", a, err)
	}
	if !errors.Is(rejected, context.Canceled) {
		t.Errorf("rejection reason = %v, want context.Canceled", rejected)
	}
	// Nothing recorded: the consumer's window is untouched.
	if n := m.Registry().Consumer(0).Interactions(); n != 0 {
		t.Errorf("consumer interactions = %d, want 0", n)
	}
}

// TestCancelAbortsInFlightFanout: canceling the mediation context while the
// fan-out is waiting on a participant aborts the mediation promptly with the
// context error (the participant here honors ctx, but the hard-deadline
// select guarantees the same even if it did not).
func TestCancelAbortsInFlightFanout(t *testing.T) {
	m := New(fullPopulationSbQA(), Config{Window: 10})
	m.RegisterConsumer(&fakeConsumer{id: 0, likes: map[model.ProviderID]model.Intention{1: 1}})
	release := make(chan struct{})
	defer close(release)
	m.RegisterProvider(&participantProvider{fakeProvider: fakeProvider{id: 1}, release: release})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := m.Mediate(ctx, 0, q(1, 0, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v to take effect", elapsed)
	}
}
