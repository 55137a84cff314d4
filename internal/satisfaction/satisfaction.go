// Package satisfaction implements the satisfaction model of the SbQA paper
// (Section II): sliding-window interaction memories for consumers and
// providers, the per-query consumer satisfaction δs(c,q) of Equation 1, the
// long-run consumer satisfaction δs(c) of Definition 1, and the provider
// satisfaction δs(p) of Definition 2.
//
// It also implements the two companion notions the paper mentions but
// delegates to the authors' VLDB'07 model: adequation (how well the stream
// of queries matches a participant's interests, independent of the
// mediator's choices) and allocation satisfaction (how well the mediator did
// relative to the best it could have done). Those two feed analysis output
// only; the allocation process itself uses δs alone.
//
// All satisfactions live in [0, 1]; intentions live in [-1, 1] and are mapped
// to [0, 1] via (x+1)/2 (model.Intention.Unit).
package satisfaction

import (
	"math"
	"sync/atomic"

	"sbqa/internal/model"
)

// DefaultWindow is the default number k of interactions a participant
// remembers. The paper assumes every participant uses the same k for
// simplicity; the trackers accept any per-participant value.
const DefaultWindow = 100

// Neutral is the satisfaction reported before a participant has any
// interaction to judge: a cold-start participant is neither satisfied nor
// dissatisfied. Definition 2's "0 if SQ = ∅" is applied once the provider
// has at least one *proposed* query in its window; before any proposal at
// all there is no evidence either way, and returning 0 would make the
// adaptive ω of Equation 2 swing violently at system start.
const Neutral = 0.5

// ConsumerQuerySatisfaction computes δs(c, q) — Equation 1 of the paper:
//
//	δs(c,q) = (1/n) · Σ_{p ∈ P̂q} (CI_q[p]+1)/2
//
// where n is the number of results the consumer required and performed holds
// CI_q[p] for each provider p that actually performed q (the set P̂q). If
// fewer than n providers performed the query, the missing results contribute
// zero — an unserved consumer is an unsatisfied consumer.
func ConsumerQuerySatisfaction(n int, performed []model.Intention) float64 {
	if n < 1 {
		n = 1
	}
	var sum float64
	for _, ci := range performed {
		sum += ci.Unit()
	}
	s := sum / float64(n)
	if s > 1 {
		// More results than required (the mediator over-allocated);
		// satisfaction is capped at fully satisfied.
		return 1
	}
	return s
}

// BestQuerySatisfaction computes the best δs(c, q) the mediator could have
// delivered for the query: allocating it to the n providers of the candidate
// set with the highest consumer intentions. candidates holds CI_q[p] for
// every provider able to perform q (the set P_q). It is the denominator of
// the consumer's allocation satisfaction.
func BestQuerySatisfaction(n int, candidates []model.Intention) float64 {
	if n < 1 {
		n = 1
	}
	if len(candidates) == 0 {
		return 0
	}
	// Top-n by intention, via partial selection (n is tiny in practice —
	// small enough for a stack buffer on every realistic query; the heap
	// fallback keeps correctness for pathological n).
	var topArr [16]float64
	var top []float64
	if n <= len(topArr) {
		top = topArr[:0]
	} else {
		top = make([]float64, 0, n)
	}
	for _, ci := range candidates {
		u := ci.Unit()
		if len(top) < n {
			top = append(top, u)
			continue
		}
		// Replace the smallest if u beats it.
		minIdx := 0
		for i := 1; i < len(top); i++ {
			if top[i] < top[minIdx] {
				minIdx = i
			}
		}
		if u > top[minIdx] {
			top[minIdx] = u
		}
	}
	var sum float64
	for _, u := range top {
		sum += u
	}
	s := sum / float64(n)
	if s > 1 {
		return 1
	}
	return s
}

// consumerRecord is one remembered query interaction.
type consumerRecord struct {
	obtained   float64 // δs(c,q)
	best       float64 // best achievable δs(c,q) given P_q
	adequation float64 // mean intention toward P_q, in [0,1]
}

// ConsumerTracker maintains a consumer's interaction memory IQ_c^k and
// derives its long-run satisfaction (Definition 1), adequation and
// allocation satisfaction. The zero value is not usable; call NewConsumer.
//
// δs(c) is read in O(1) from two partial sums of the obtained values: head
// sums slots 0..next-1 in slot order as they are written, and tail[i] sums
// slots i..n-1 right to left, frozen once per lap when the cursor wraps.
// Slots next..n-1 are untouched since that freeze, so head + tail[next]
// covers the window exactly; both are functions of the slots and the cursor
// alone, so a tracker rebuilt from its export reads the same bits.
type ConsumerTracker struct {
	k    int
	buf  []consumerRecord
	tail []float64
	head float64
	next int
	n    int // number of valid records (≤ k)
}

// NewConsumer returns a tracker remembering the k last queries. k < 1 falls
// back to DefaultWindow.
func NewConsumer(k int) *ConsumerTracker {
	if k < 1 {
		k = DefaultWindow
	}
	return &ConsumerTracker{k: k, buf: make([]consumerRecord, k), tail: make([]float64, k)}
}

// Interactions returns how many queries are currently remembered (≤ k).
func (t *ConsumerTracker) Interactions() int { return t.n }

// Record remembers the outcome of one query: the obtained per-query
// satisfaction, the best achievable one, and the adequation of the candidate
// set (mean unit intention over P_q). Values are clamped to [0, 1].
func (t *ConsumerTracker) Record(obtained, best, adequation float64) {
	rec := consumerRecord{
		obtained:   clamp01(obtained),
		best:       clamp01(best),
		adequation: clamp01(adequation),
	}
	t.buf[t.next] = rec
	t.head += rec.obtained
	t.next++
	if t.n < t.k {
		t.n++
	}
	if t.next == t.k {
		t.next = 0
		t.freezeTail()
	}
}

// freezeTail recomputes tail over the whole window and head over slots
// 0..next-1; Record calls it at each wrap (next = 0), a restore once.
func (t *ConsumerTracker) freezeTail() {
	var s float64
	for i := t.n - 1; i >= 0; i-- {
		s += t.buf[i].obtained
		t.tail[i] = s
	}
	t.head = 0
	for i := 0; i < t.next; i++ {
		t.head += t.buf[i].obtained
	}
}

// RecordQuery is a convenience wrapper computing Equation 1 and the best
// achievable satisfaction from raw intentions, then recording them.
// performed holds CI_q[p] for providers that performed q; candidates holds
// CI_q[p] for all of P_q.
func (t *ConsumerTracker) RecordQuery(n int, performed, candidates []model.Intention) {
	obtained := ConsumerQuerySatisfaction(n, performed)
	best := BestQuerySatisfaction(n, candidates)
	var adq float64
	if len(candidates) > 0 {
		var sum float64
		for _, ci := range candidates {
			sum += ci.Unit()
		}
		adq = sum / float64(len(candidates))
	}
	t.Record(obtained, best, adq)
}

// Satisfaction returns δs(c) — Definition 1: the mean of the obtained
// per-query satisfactions over the remembered window; Neutral before any
// interaction.
func (t *ConsumerTracker) Satisfaction() float64 {
	if t.n == 0 {
		return Neutral
	}
	return (t.head + t.tail[t.next]) / float64(t.n)
}

// Adequation returns δa(c): the mean adequation of the candidate sets the
// system offered for the remembered queries — how well the system *could*
// serve this consumer, regardless of the mediator's decisions. Neutral
// before any interaction.
func (t *ConsumerTracker) Adequation() float64 {
	if t.n == 0 {
		return Neutral
	}
	var sum float64
	for i := 0; i < t.n; i++ {
		sum += t.buf[i].adequation
	}
	return sum / float64(t.n)
}

// AllocationSatisfaction returns how close the mediator came to the best it
// could have done for this consumer: mean(obtained) / mean(best) over the
// window, clamped to [0, 1]; 1 when nothing better was possible. Neutral
// before any interaction.
func (t *ConsumerTracker) AllocationSatisfaction() float64 {
	if t.n == 0 {
		return Neutral
	}
	var obt, best float64
	for i := 0; i < t.n; i++ {
		obt += t.buf[i].obtained
		best += t.buf[i].best
	}
	if best == 0 {
		return 1
	}
	r := obt / best
	if r > 1 {
		return 1
	}
	return r
}

// ProviderTracker maintains a provider's memory of the k last queries the
// mediator *proposed* to it (vector PPI_p in the paper) and which of those
// it actually performed (set SQ_p^k), and derives Definition 2 satisfaction
// plus adequation and allocation satisfaction. The zero value is not usable;
// call NewProvider.
//
// The window is kept as parallel columns (unit intention, performed flag,
// frozen tail) rather than one record slice, so a slot costs 17 bytes where
// an inline tail would pad it to 24. δs(p) is read in O(1) like δs(c): head
// and tail sum only the performed slots' intentions, and performed counts
// them exactly.
//
// Every mutation also publishes Satisfaction() as float64 bits in sat, so
// Registry.ProviderSatisfaction reads δs(p) with one atomic load, without the
// stripe lock its writers hold.
type ProviderTracker struct {
	k         int
	in        []float64 // unit-mapped expressed intention (PPI+1)/2
	done      []bool    // whether the mediator allocated the query
	tail      []float64
	head      float64
	performed int
	next      int
	n         int
	sat       atomic.Uint64 // math.Float64bits(Satisfaction()) as of the last mutation
}

// NewProvider returns a tracker remembering the k last proposed queries.
// k < 1 falls back to DefaultWindow.
func NewProvider(k int) *ProviderTracker {
	if k < 1 {
		k = DefaultWindow
	}
	t := &ProviderTracker{k: k, in: make([]float64, k), done: make([]bool, k), tail: make([]float64, k)}
	t.publish()
	return t
}

// publish stores Satisfaction() for lock-free readers.
func (t *ProviderTracker) publish() { t.sat.Store(math.Float64bits(t.Satisfaction())) }

// published returns δs(p) as of the tracker's last mutation; safe to call
// concurrently with the mutations of a writer holding the stripe lock.
func (t *ProviderTracker) published() float64 { return math.Float64frombits(t.sat.Load()) }

// Interactions returns how many proposals are currently remembered (≤ k).
func (t *ProviderTracker) Interactions() int { return t.n }

// Record remembers one proposal: the intention the provider expressed for
// the query and whether the mediator allocated the query to it.
func (t *ProviderTracker) Record(pi model.Intention, performed bool) {
	u := pi.Clamp().Unit()
	if t.done[t.next] {
		t.performed--
	}
	t.in[t.next], t.done[t.next] = u, performed
	if performed {
		t.head += u
		t.performed++
	}
	t.next++
	if t.n < t.k {
		t.n++
	}
	if t.next == t.k {
		t.next = 0
		t.freezeTail() // publishes
		return
	}
	t.publish()
}

// freezeTail recomputes tail over the whole window and head over slots
// 0..next-1, and publishes the result; Record calls it at each wrap
// (next = 0), a restore once.
func (t *ProviderTracker) freezeTail() {
	var s float64
	for i := t.n - 1; i >= 0; i-- {
		if t.done[i] {
			s += t.in[i]
		}
		t.tail[i] = s
	}
	t.head = 0
	for i := 0; i < t.next; i++ {
		if t.done[i] {
			t.head += t.in[i]
		}
	}
	t.publish()
}

// Satisfaction returns δs(p) — Definition 2: the mean unit intention over
// the performed queries among the k last proposed; 0 if it performed none of
// them; Neutral before any proposal at all (see the Neutral doc).
func (t *ProviderTracker) Satisfaction() float64 {
	if t.n == 0 {
		return Neutral
	}
	if t.performed == 0 {
		return 0
	}
	return (t.head + t.tail[t.next]) / float64(t.performed)
}

// Adequation returns δa(p): the mean unit intention over *all* remembered
// proposals — how interesting the query stream reaching this provider is,
// regardless of whether the mediator ultimately allocated the queries to it.
// Neutral before any proposal.
func (t *ProviderTracker) Adequation() float64 {
	if t.n == 0 {
		return Neutral
	}
	var sum float64
	for i := 0; i < t.n; i++ {
		sum += t.in[i]
	}
	return sum / float64(t.n)
}

// AllocationSatisfaction relates what the provider got to what the proposal
// stream offered: δs(p) / δa(p), clamped to [0, 1]. A provider that performs
// exactly the queries it likes scores high even if it performs few; Neutral
// before any proposal.
func (t *ProviderTracker) AllocationSatisfaction() float64 {
	if t.n == 0 {
		return Neutral
	}
	adq := t.Adequation()
	if adq == 0 {
		return 1
	}
	r := t.Satisfaction() / adq
	if r > 1 {
		return 1
	}
	return r
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
