package satisfaction

// This file is the durability surface of the satisfaction model: trackers
// export the exact contents of their sliding windows — not just the derived
// δs — and rebuild from that state bit-identically. Exactness matters
// because every derived value is a float64 sum whose rounding depends on the
// ring layout: Adequation and AllocationSatisfaction sum the ring in slot
// order, and Satisfaction adds a head (slots 0..next-1, in slot order) to a
// tail frozen right to left at the last wrap (slots next..n-1). Restoring the
// same records in a different order, or at a different cursor, could change
// the rounding, and the adaptive ω of Equation 2 would drift after a restart.
// The export therefore captures the ring layout itself (slot order plus the
// write cursor), from which a restore recomputes head and tail exactly as
// the live tracker holds them; the per-stripe registry iteration lets the
// persistence layer walk a million-participant registry without ever holding
// more than one stripe lock.

import (
	"fmt"

	"sbqa/internal/model"
)

// ConsumerRecordState is one remembered query interaction in export form.
type ConsumerRecordState struct {
	Obtained   float64
	Best       float64
	Adequation float64
}

// ConsumerState is the full serializable state of one consumer tracker: the
// window length, the write cursor, and the remembered records in ring-slot
// order (slot 0 first — NOT chronological order once the ring has wrapped).
// Restoring it with NewConsumerFromState yields a tracker whose every
// derived value is bit-identical to the exported one's.
type ConsumerState struct {
	K       int
	Next    int
	Records []ConsumerRecordState
}

// ExportState captures the tracker's window contents.
func (t *ConsumerTracker) ExportState() ConsumerState {
	st := ConsumerState{K: t.k, Next: t.next, Records: make([]ConsumerRecordState, t.n)}
	for i := 0; i < t.n; i++ {
		st.Records[i] = ConsumerRecordState{
			Obtained:   t.buf[i].obtained,
			Best:       t.buf[i].best,
			Adequation: t.buf[i].adequation,
		}
	}
	return st
}

// validateWindow checks the ring invariants shared by both tracker kinds:
// records fit the window, the cursor is in range, and a partially filled
// ring has its cursor exactly past the last record (the only layout Record
// can produce before the first wrap).
func validateWindow(k, next, n int) error {
	if k < 1 {
		return fmt.Errorf("satisfaction: window %d < 1", k)
	}
	if n > k {
		return fmt.Errorf("satisfaction: %d records exceed window %d", n, k)
	}
	if next < 0 || next >= k {
		return fmt.Errorf("satisfaction: cursor %d outside window %d", next, k)
	}
	if n < k && next != n {
		return fmt.Errorf("satisfaction: cursor %d inconsistent with %d records in window %d", next, n, k)
	}
	return nil
}

// NewConsumerFromState rebuilds a tracker from an exported state. Values are
// restored exactly as exported (no clamping): the exporter only ever saw
// clamped records, and re-clamping would mask codec bugs.
func NewConsumerFromState(st ConsumerState) (*ConsumerTracker, error) {
	if err := validateWindow(st.K, st.Next, len(st.Records)); err != nil {
		return nil, err
	}
	t := NewConsumer(st.K)
	t.next, t.n = st.Next, len(st.Records)
	for i, r := range st.Records {
		t.buf[i] = consumerRecord{obtained: r.Obtained, best: r.Best, adequation: r.Adequation}
	}
	t.freezeTail()
	return t, nil
}

// ProviderRecordState is one remembered proposal in export form.
type ProviderRecordState struct {
	Intention float64
	Performed bool
}

// ProviderState is the full serializable state of one provider tracker; see
// ConsumerState for the layout contract.
type ProviderState struct {
	K       int
	Next    int
	Records []ProviderRecordState
}

// ExportState captures the tracker's window contents.
func (t *ProviderTracker) ExportState() ProviderState {
	st := ProviderState{K: t.k, Next: t.next, Records: make([]ProviderRecordState, t.n)}
	for i := 0; i < t.n; i++ {
		st.Records[i] = ProviderRecordState{Intention: t.in[i], Performed: t.done[i]}
	}
	return st
}

// NewProviderFromState rebuilds a tracker from an exported state.
func NewProviderFromState(st ProviderState) (*ProviderTracker, error) {
	if err := validateWindow(st.K, st.Next, len(st.Records)); err != nil {
		return nil, err
	}
	t := NewProvider(st.K)
	t.next, t.n = st.Next, len(st.Records)
	for i, r := range st.Records {
		t.in[i], t.done[i] = r.Intention, r.Performed
		if r.Performed {
			t.performed++
		}
	}
	t.freezeTail()
	return t, nil
}

// Stripes returns the number of lock stripes per participant kind — the
// granularity of the export iteration.
func (r *Registry) Stripes() int { return shardCount }

// ExportConsumerStripe calls fn with the exported state of every consumer on
// stripe i, under that stripe's read lock. fn must not call back into the
// registry. Stripe indices outside [0, Stripes()) export nothing.
func (r *Registry) ExportConsumerStripe(i int, fn func(model.ConsumerID, ConsumerState)) {
	if i < 0 || i >= shardCount {
		return
	}
	sh := &r.consumers[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for id, t := range sh.m {
		fn(id, t.ExportState())
	}
}

// ExportProviderStripe calls fn with the exported state of every provider on
// stripe i, under that stripe's read lock; see ExportConsumerStripe.
func (r *Registry) ExportProviderStripe(i int, fn func(model.ProviderID, ProviderState)) {
	if i < 0 || i >= shardCount {
		return
	}
	sh := &r.providers[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for id, t := range sh.m {
		fn(id, t.ExportState())
	}
}

// ImportConsumer installs a tracker rebuilt from st for consumer c,
// replacing any existing tracker.
func (r *Registry) ImportConsumer(c model.ConsumerID, st ConsumerState) error {
	t, err := NewConsumerFromState(st)
	if err != nil {
		return fmt.Errorf("consumer %d: %w", c, err)
	}
	sh := r.cshard(c)
	sh.mu.Lock()
	sh.m[c] = t
	sh.mu.Unlock()
	return nil
}

// ImportProvider installs a tracker rebuilt from st for provider p,
// replacing any existing tracker.
func (r *Registry) ImportProvider(p model.ProviderID, st ProviderState) error {
	t, err := NewProviderFromState(st)
	if err != nil {
		return fmt.Errorf("provider %d: %w", p, err)
	}
	sh := r.pshard(p)
	sh.mu.Lock()
	sh.m[p] = t
	sh.read.Store(nil) // the copy may hold the replaced tracker
	sh.mu.Unlock()
	return nil
}
