// Package knbest implements the KnBest candidate-selection strategy
// (Quiané-Ruiz, Lamarre, Valduriez, DASFAA 2007) used as the first stage of
// the SbQA mediation:
//
//  1. from the set P_q of providers able to perform query q, draw a set K
//     of k providers uniformly at random;
//  2. keep the set Kn of the kn least-utilized providers of K;
//  3. (performed by the caller) rank Kn by score and allocate q to the
//     min(q.n, kn) best.
//
// Varying k and kn adapts the allocation process to the application: kn close
// to q.n makes the process a load balancer (the score hardly matters), while
// k = kn = |P_q| makes it a pure interest matcher. The random first stage
// bounds the number of intention requests per query, which is what makes the
// process scale to large provider populations.
//
// The bound covers the whole mediation, not only the intention round: stage 1
// draws *positions* out of the candidate source (SelectFrom) and only the k
// drawn providers are asked CanPerform and snapshotted, so a mediation costs
// O(k) however large P_q is. The draw is alloc.Sampler's: optimistic over the
// class bucket, falling back to a fresh draw over the filtered P_q when a
// drawn provider refuses — K is a uniform k-subset of P_q either way.
package knbest

import (
	"fmt"
	"sort"

	"sbqa/internal/alloc"
	"sbqa/internal/model"
	"sbqa/internal/stats"
)

// Params configures the two KnBest stages.
type Params struct {
	// K is the number of providers drawn at random from P_q (stage 1).
	// K <= 0 or K >= |P_q| disables sampling: all of P_q is considered.
	K int

	// Kn is the number of least-utilized providers kept from K (stage 2).
	// Kn <= 0 or Kn >= |K| disables the utilization filter.
	Kn int
}

// DefaultParams returns the configuration used by the SbQA demo defaults:
// a moderate random sample with a utilization filter that still leaves the
// scorer a real choice.
func DefaultParams() Params { return Params{K: 20, Kn: 10} }

// Validate reports whether the parameters are coherent (Kn ≤ K when both are
// set).
func (p Params) Validate() error {
	if p.K > 0 && p.Kn > p.K {
		return fmt.Errorf("knbest: kn=%d exceeds k=%d", p.Kn, p.K)
	}
	return nil
}

// String renders the parameters for experiment logs.
func (p Params) String() string { return fmt.Sprintf("knbest(k=%d,kn=%d)", p.K, p.Kn) }

// Selector applies the two KnBest stages with a private random stream.
// It is not safe for concurrent use.
type Selector struct {
	params Params
	rng    *stats.RNG

	// scratch buffers reused across calls to avoid per-query allocation.
	sampler alloc.Sampler
	slice   alloc.Snapshots // Select's slice argument, as a source
	sample  []model.ProviderSnapshot
	sorter  snapSorter
}

// snapSorter is the selector's reusable sort.Interface over its sample
// scratch: keeping it as a struct field (rather than a sort.SliceStable
// closure) makes the stage-2 sort allocation-free. The comparator is the
// KnBest tiebreak chain — utilization, then queue length, then ID — and the
// sort is stable, so the result is byte-identical to the historical
// sort.SliceStable ordering.
type snapSorter struct{ s []model.ProviderSnapshot }

func (x *snapSorter) Len() int      { return len(x.s) }
func (x *snapSorter) Swap(i, j int) { x.s[i], x.s[j] = x.s[j], x.s[i] }
func (x *snapSorter) Less(i, j int) bool {
	a, b := x.s[i], x.s[j]
	if a.Utilization != b.Utilization {
		return a.Utilization < b.Utilization
	}
	if a.QueueLen != b.QueueLen {
		return a.QueueLen < b.QueueLen
	}
	return a.ID < b.ID
}

// NewSelector returns a selector with the given parameters and RNG. A nil
// rng gets a fixed-seed stream (useful in tests).
func NewSelector(params Params, rng *stats.RNG) *Selector {
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	return &Selector{params: params, rng: rng}
}

// Params returns the selector's configuration.
func (s *Selector) Params() Params { return s.params }

// RNGState exposes the sampling stream's internal state for persistence;
// pair with RestoreRNGState. Same threading contract as Select: the selector
// (and thus its RNG) belongs to the mediating goroutine.
func (s *Selector) RNGState() [4]uint64 { return s.rng.State() }

// RestoreRNGState resumes the sampling stream from a persisted state, so a
// restarted mediator draws the same stage-1 samples an uninterrupted run
// would have.
func (s *Selector) RestoreRNGState(state [4]uint64) { s.rng.Restore(state) }

// Select applies both stages to a materialised candidate set under the
// selector's parameters and returns the retained providers (set Kn), ordered
// by increasing utilization. The input slice is not modified. It is
// SelectFrom over the slice: same draws, same order.
func (s *Selector) Select(candidates []model.ProviderSnapshot) []model.ProviderSnapshot {
	s.slice = candidates
	kn, _ := s.SelectFrom(s.params, &s.slice)
	s.slice = nil
	return kn
}

// SelectFrom applies both stages to a candidate source under the given
// parameters: stage 1 draws K's positions and snapshots only those, stage 2
// keeps the kn least utilized. It returns Kn ordered by increasing
// utilization, and the size of the population K was drawn from (the source's
// bucket, or the filtered P_q when a drawn provider refused; 0 with a nil Kn
// when P_q is empty). The selector (its RNG and scratch buffers) belongs to a
// single goroutine.
//
// The returned slice is selector-owned scratch: it is valid until the next
// Select/SelectFrom call, which overwrites it. Callers that need
// the set beyond the current mediation must copy it.
func (s *Selector) SelectFrom(params Params, src alloc.Source) ([]model.ProviderSnapshot, int) {
	// Stage 1: K random providers from P_q (params.K <= 0 or beyond the
	// population: all of it).
	sample, population := s.sampler.Sample(s.rng, src, params.K, s.sample[:0])
	s.sample = sample
	if len(sample) == 0 {
		return nil, 0
	}

	// Stage 2: the kn least-utilized providers of K. Ties break by queue
	// length, then by ID for determinism; the stable sort over the reusable
	// sorter reproduces the historical sort.SliceStable order exactly.
	s.sorter.s = sample
	sort.Stable(&s.sorter)
	s.sorter.s = nil
	kn := params.Kn
	if kn <= 0 || kn > len(sample) {
		kn = len(sample)
	}
	return sample[:kn], population
}
