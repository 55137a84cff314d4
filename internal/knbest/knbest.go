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
// draws *positions* out of the candidate source (SelectFrom, through
// alloc.Sampler) and only the k drawn providers are snapshotted, so a
// mediation costs O(k) however large P_q is.
package knbest

import (
	"fmt"
	"slices"

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
}

// snapLess is the stage-2 order — utilization, then queue length, then ID —
// a total order over the distinct providers of a sample.
func snapLess(a, b *model.ProviderSnapshot) bool {
	if a.Utilization != b.Utilization {
		return a.Utilization < b.Utilization
	}
	if a.QueueLen != b.QueueLen {
		return a.QueueLen < b.QueueLen
	}
	return a.ID < b.ID
}

// maxInsertKept is the largest kn keepLeast inserts into: its worst case is
// O(len(s)·kn) moves, so a larger kn (k = kn = |P_q|) gets a stable sort,
// which overtakes the insertion between 64 and 200 providers. At k = 20,
// kn = 10 (every benchmark workload's policy) BenchmarkKnBestSelect reads
// 1.2 µs here, 2.2–2.8 µs with one slices.SortStableFunc of the sample,
// 1.3–1.6 µs inserting all 20 and keeping 10, and 1.6 µs comparing the
// 48-byte snapshots by value (alternated runs, 2 vCPUs): the inlined
// comparison through pointers is most of the gain, the partial selection
// the rest.
const maxInsertKept = 64

// keepLeast moves the kn least elements of s under snapLess to its front, in
// order, and returns them: the first kn of a stable sort of s, without
// sorting the rest. s stays a permutation of itself. 0 < kn <= len(s).
func keepLeast(s []model.ProviderSnapshot, kn int) []model.ProviderSnapshot {
	if kn > maxInsertKept {
		slices.SortStableFunc(s, func(a, b model.ProviderSnapshot) int {
			switch {
			case snapLess(&a, &b):
				return -1
			case snapLess(&b, &a):
				return 1
			}
			return 0
		})
		return s[:kn]
	}
	for i := 1; i < len(s); i++ {
		v, j := s[i], i
		if i >= kn {
			if !snapLess(&v, &s[kn-1]) {
				continue // an equal one kept earlier stays ahead, as in a stable sort
			}
			s[i], j = s[kn-1], kn-1
		}
		for ; j > 0 && snapLess(&v, &s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = v
	}
	return s[:kn]
}

// NewSelector returns a selector with the given parameters and RNG. A nil
// rng gets a fixed-seed stream (useful in tests).
func NewSelector(params Params, rng *stats.RNG) *Selector {
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	return &Selector{params: params, rng: rng}
}

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
// utilization, and |P_q|, the size of the population K was drawn from (0
// with a nil Kn when P_q is empty). The selector (its RNG and scratch
// buffers) belongs to a single goroutine.
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
	// length, then by ID for determinism.
	kn := params.Kn
	if kn <= 0 || kn > len(sample) {
		kn = len(sample)
	}
	return keepLeast(sample, kn), population
}
