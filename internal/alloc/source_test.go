package alloc

import (
	"sort"
	"testing"

	"sbqa/internal/model"
	"sbqa/internal/stats"
)

// countingSource is a materialised P_q that counts how it is pulled.
type countingSource struct {
	bucket   []model.ProviderSnapshot
	atCalls  int
	allCalls int
}

func (s *countingSource) Len() int { return len(s.bucket) }
func (s *countingSource) At(i int) model.ProviderSnapshot {
	s.atCalls++
	return s.bucket[i]
}
func (s *countingSource) All(buf []model.ProviderSnapshot) []model.ProviderSnapshot {
	s.allCalls++
	return append(buf, s.bucket...)
}

// TestSamplerDrawsLikeAPrefilteredSampleK: the pulled sample is exactly the
// historical "filter P_q, SampleK over it, gather" —
// same members, same order, same stream position — and only the k drawn
// positions are touched.
func TestSamplerDrawsLikeAPrefilteredSampleK(t *testing.T) {
	sizes := stats.NewRNG(99)
	pulled, reference := stats.NewRNG(7), stats.NewRNG(7)
	var sampler Sampler
	var idx []int
	for trial := 0; trial < 500; trial++ {
		n := 1 + sizes.Intn(60)
		k := sizes.Intn(n+10) - 2 // includes k < 1 and k > n
		src := &countingSource{bucket: snaps(make([]float64, n)...)}

		got, population := sampler.Sample(pulled, src, k, nil)

		want := k
		if want < 1 || want > n {
			want = n
		}
		idx = reference.SampleK(n, want, idx)
		if population != n || len(got) != want {
			t.Fatalf("n=%d k=%d: sampled %d of population %d, want %d of %d", n, k, len(got), population, want, n)
		}
		for i, pos := range idx {
			if got[i].ID != src.bucket[pos].ID {
				t.Fatalf("n=%d k=%d: position %d drew provider %d, reference drew %d", n, k, i, got[i].ID, src.bucket[pos].ID)
			}
		}
		if pulled.State() != reference.State() {
			t.Fatalf("n=%d k=%d: stream diverged from the reference draw", n, k)
		}
		if src.atCalls != want || src.allCalls != 0 {
			t.Fatalf("n=%d k=%d: %d At + %d All calls, want %d + 0", n, k, src.atCalls, src.allCalls, want)
		}
	}
}

// TestRoundRobinMatchesSortedCopyRotation pins the rotation against the
// historical implementation (copy the candidates, sort by ID, take n from the
// cursor): the indexed rotation must hand out the same providers in the same
// order across changing set sizes and result counts.
func TestRoundRobinMatchesSortedCopyRotation(t *testing.T) {
	rng := stats.NewRNG(21)
	a := NewRoundRobin()
	cursor := 0
	for trial := 0; trial < 400; trial++ {
		cands := make([]model.ProviderSnapshot, 1+rng.Intn(9))
		for i := range cands {
			cands[i] = model.ProviderSnapshot{ID: model.ProviderID(3 * i), Capacity: 1}
		}
		query := q(1 + rng.Intn(4))

		ordered := append([]model.ProviderSnapshot(nil), cands...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
		n := resultN(query, len(ordered))
		var want []model.ProviderID
		for i := 0; i < n; i++ {
			want = append(want, ordered[(cursor+i)%len(ordered)].ID)
		}
		cursor = (cursor + n) % len(ordered)

		got := allocate(t, a, nil, query, cands).Selected
		if len(got) != len(want) {
			t.Fatalf("trial %d: selected %v, want %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: selected %v, want %v", trial, got, want)
			}
		}
	}
}
