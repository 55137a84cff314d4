package alloc

import (
	"sbqa/internal/model"
	"sbqa/internal/stats"
)

// Source is the candidate set of one mediation, pulled on demand. The
// mediator backs it with the directory's index bucket for the query's class
// (universal providers ∪ the class's specialists, ascending ProviderID) —
// P_q itself — and takes a provider's Snapshot only when an allocator
// reaches for that provider, so a technique that looks at k providers costs
// O(k) per query whatever |P_q| is.
//
// A Source is per-mediation scratch: it is valid for the duration of one
// Allocate call and must not be retained.
type Source interface {
	// Len returns |P_q|.
	Len() int

	// At snapshots the provider at position i of P_q (0 ≤ i < Len(),
	// ascending ProviderID).
	At(i int) model.ProviderSnapshot

	// All appends the snapshot of every provider of P_q, in ascending
	// ProviderID order, to buf and returns the extended slice. It is the
	// O(|P_q|) path for techniques that genuinely rank everyone.
	All(buf []model.ProviderSnapshot) []model.ProviderSnapshot
}

// Snapshots adapts a materialised candidate set (ascending ProviderID) to
// Source: tests, the policy preview and any embedding that already holds
// P_q.
type Snapshots []model.ProviderSnapshot

// Len implements Source.
func (s Snapshots) Len() int { return len(s) }

// At implements Source.
func (s Snapshots) At(i int) model.ProviderSnapshot { return s[i] }

// All implements Source.
func (s Snapshots) All(buf []model.ProviderSnapshot) []model.ProviderSnapshot {
	return append(buf, s...)
}

// Sampler draws uniform random subsets of P_q from a Source — stage 1 of
// KnBest, and the whole of the Random and Economic sampling. It holds only
// scratch; the random stream is the caller's.
//
// The draw picks k positions first and snapshots only those, so it costs
// O(k) whatever |P_q| is, and the stream advances exactly as a draw over a
// materialised P_q would.
type Sampler struct {
	idx []int
}

// Sample appends to dst the snapshots of a uniform k-subset of P_q, in draw
// order, and returns the extended slice with |P_q|, the size of the
// population it drew from. k < 1 or k beyond the population selects all of
// it.
func (s *Sampler) Sample(rng *stats.RNG, src Source, k int, dst []model.ProviderSnapshot) ([]model.ProviderSnapshot, int) {
	n := src.Len()
	if n == 0 {
		return dst, 0
	}
	s.idx = rng.SampleK(n, clampK(k, n), s.idx)
	for _, i := range s.idx {
		dst = append(dst, src.At(i))
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
