package alloc

import (
	"sbqa/internal/model"
	"sbqa/internal/stats"
)

// Source is the candidate set of one mediation, pulled on demand. The
// mediator backs it with the directory's index bucket for the query's class
// (universal providers ∪ the class's specialists, ascending ProviderID) and
// takes a provider's Snapshot — and asks its CanPerform — only when an
// allocator reaches for that provider, so a technique that looks at k
// providers costs O(k) per query whatever the bucket's size.
//
// A Source is per-mediation scratch: it is valid for the duration of one
// Allocate call and must not be retained.
type Source interface {
	// Len returns the size of the index bucket: an upper bound on |P_q|,
	// and exactly |P_q| when no provider of the bucket refuses the query.
	Len() int

	// At snapshots the provider at bucket position i (0 ≤ i < Len(),
	// ascending ProviderID). ok is false when that provider cannot perform
	// the query — it is not a member of P_q and must not be proposed.
	At(i int) (snap model.ProviderSnapshot, ok bool)

	// All appends P_q — the snapshot of every bucket provider able to
	// perform the query, in ascending ProviderID order — to buf and returns
	// the extended slice. It is the O(|P_q|) path for techniques that
	// genuinely rank everyone.
	All(buf []model.ProviderSnapshot) []model.ProviderSnapshot
}

// Snapshots adapts a materialised candidate set (ascending ProviderID, every
// member able to perform the query) to Source: tests, the policy preview and
// any embedding that already holds P_q.
type Snapshots []model.ProviderSnapshot

// Len implements Source.
func (s Snapshots) Len() int { return len(s) }

// At implements Source; every member of a materialised set is a candidate.
func (s Snapshots) At(i int) (model.ProviderSnapshot, bool) { return s[i], true }

// All implements Source.
func (s Snapshots) All(buf []model.ProviderSnapshot) []model.ProviderSnapshot {
	return append(buf, s...)
}

// Sampler draws uniform random subsets of P_q from a Source — stage 1 of
// KnBest, and the whole of the Random and Economic sampling. It holds only
// scratch; the random stream is the caller's.
//
// The draw is optimistic: Sample draws k positions out of the whole bucket
// and looks only at those. If every drawn provider can perform the query the
// draw stands — conditioned on landing inside P_q, a uniform k-subset of the
// bucket is a uniform k-subset of P_q — and the mediation cost O(k). If any
// drawn provider refuses, Sample materialises P_q with All and draws afresh
// over it from the continuing stream. Either way the result is a uniform
// k-subset of P_q, and when no provider of the bucket refuses the stream
// advances exactly as a draw over a pre-filtered P_q would.
type Sampler struct {
	idx []int
	all []model.ProviderSnapshot
}

// Sample appends to dst the snapshots of a uniform k-subset of P_q, in draw
// order, and returns the extended slice with the size of the population the
// standing draw ran over (Len() on the optimistic path, |P_q| after a
// fallback; 0 when P_q is empty). k < 1 or k beyond the population selects
// all of it.
func (s *Sampler) Sample(rng *stats.RNG, src Source, k int, dst []model.ProviderSnapshot) ([]model.ProviderSnapshot, int) {
	n := src.Len()
	if n == 0 {
		return dst, 0
	}
	base := len(dst)
	s.idx = rng.SampleK(n, clampK(k, n), s.idx)
	for _, i := range s.idx {
		snap, ok := src.At(i)
		if !ok {
			return s.resample(rng, src, k, dst[:base])
		}
		dst = append(dst, snap)
	}
	return dst, n
}

// resample is Sample's fallback: a fresh draw over the materialised P_q.
func (s *Sampler) resample(rng *stats.RNG, src Source, k int, dst []model.ProviderSnapshot) ([]model.ProviderSnapshot, int) {
	s.all = src.All(s.all[:0])
	n := len(s.all)
	if n == 0 {
		return dst, 0
	}
	s.idx = rng.SampleK(n, clampK(k, n), s.idx)
	for _, i := range s.idx {
		dst = append(dst, s.all[i])
	}
	return dst, n
}

// clampK resolves a requested sample size against a population of n.
func clampK(k, n int) int {
	if k < 1 || k > n {
		return n
	}
	return k
}

var _ Source = Snapshots(nil)
