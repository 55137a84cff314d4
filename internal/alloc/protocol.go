package alloc

import (
	"context"
	"fmt"

	"sbqa/internal/model"
)

// This file defines the intention protocol: the batched, context-first
// environment interface allocators consult during mediation.
//
// In a production deployment intention calls are network round trips to
// autonomous participants, and a per-provider call shape would make the hot
// path impossible to parallelize, bound, or route off-process. Env collects
// everything a mediation needs about the candidate batch Kn in one call —
// the environment implementation decides how (in-process loops, a
// concurrent fan-out with per-participant deadlines, an HTTP scatter-gather)
// and reports, per position, whether the value was reported by the
// participant or imputed from its satisfaction registry state.

// IntentionSet is the outcome of one batched intention collection over a
// candidate batch kn: position-aligned CI_q and PI_q vectors plus the
// provenance of each value. The zero IntentionSet is an empty batch.
type IntentionSet struct {
	// CI holds CI_q[p] for each p in the batch: the consumer's intention to
	// see q allocated to that provider.
	CI []model.Intention

	// PI holds PI_q[p] for each p in the batch: the provider's intention to
	// perform q.
	PI []model.Intention

	// PIImputed marks positions whose PI was imputed from registry state
	// because the provider stayed silent (missed its deadline) or failed.
	// Nil when every provider reported.
	PIImputed []bool

	// PIErr holds, per imputed position, the captured cause
	// (context.DeadlineExceeded on a missed deadline). Nil when every
	// provider reported.
	PIErr []error

	// CIImputed reports that the consumer stayed silent and the whole CI
	// vector was imputed from its registry state; CIErr is the cause.
	CIImputed bool
	CIErr     error
}

// Len returns the batch size.
func (s IntentionSet) Len() int { return len(s.CI) }

// ProviderImputed reports whether position i's PI was imputed.
func (s IntentionSet) ProviderImputed(i int) bool {
	return i < len(s.PIImputed) && s.PIImputed[i]
}

// ImputedCount returns how many batch positions carry an imputed value on
// either side (the whole batch when the consumer was silent).
func (s IntentionSet) ImputedCount() int {
	n := 0
	for i := range s.CI {
		if s.CIImputed || s.ProviderImputed(i) {
			n++
		}
	}
	return n
}

// MarkProviderImputed records that position i's PI was imputed with the
// given cause, allocating the provenance slices on first use.
func (s *IntentionSet) MarkProviderImputed(i int, err error) {
	if s.PIImputed == nil {
		s.PIImputed = make([]bool, len(s.PI))
		s.PIErr = make([]error, len(s.PI))
	}
	s.PIImputed[i] = true
	s.PIErr[i] = err
}

// Env is the mediation environment: the allocator's only window onto the
// participants. One mediation makes at most one Intentions call (SbQA) or
// one Bids call (the economic baseline) over its candidate batch; the
// environment implementation owns transport, concurrency, deadlines, and
// imputation for silent participants.
//
// The query q carries its consumer, so consumer-side calls need no separate
// consumer argument. Satisfaction lookups read mediator-local registry state
// and are therefore synchronous.
//
// Implementations must be safe for the duration of one Allocate call; the
// default in-process implementation lives in the mediator, and StaticEnv
// serves the protocol from explicit tables.
type Env interface {
	// Intentions collects CI_q and PI_q over the candidate batch kn. The
	// returned set is position-aligned with kn (Len() == len(kn)). A
	// non-nil error aborts the mediation — implementations return one only
	// for protocol-fatal conditions (ctx canceled), never for individual
	// silent participants, which are imputed and marked instead.
	Intentions(ctx context.Context, q model.Query, kn []model.ProviderSnapshot) (IntentionSet, error)

	// Bids collects the price each provider in the batch asks to perform q
	// (economic baseline only), position-aligned with kn. A silent bidder's
	// bid is imputed as its expected completion delay.
	Bids(ctx context.Context, q model.Query, kn []model.ProviderSnapshot) ([]float64, error)

	// ConsumerSatisfaction returns δs(c) for q's consumer.
	ConsumerSatisfaction(c model.ConsumerID) float64

	// AppendProviderSatisfactions appends δs(p) for each provider in the
	// batch to dst, position-aligned with kn, and returns the extended
	// slice — so an allocator reuses one scratch column across mediations.
	AppendProviderSatisfactions(kn []model.ProviderSnapshot, dst []float64) []float64
}

// CheckBatch validates that a batched response is position-aligned with its
// candidate batch — the defensive check allocators apply before indexing.
func CheckBatch(got, want int, what string) error {
	if got != want {
		return fmt.Errorf("alloc: %s batch has %d entries for %d candidates", what, got, want)
	}
	return nil
}
