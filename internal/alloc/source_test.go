package alloc

import (
	"context"
	"math"
	"sort"
	"testing"

	"sbqa/internal/model"
	"sbqa/internal/stats"
)

// vetoSource is a bucket some of whose providers refuse the query, counting
// how it is pulled.
type vetoSource struct {
	bucket   []model.ProviderSnapshot
	refuse   map[model.ProviderID]bool
	atCalls  int
	allCalls int
}

func (s *vetoSource) Len() int { return len(s.bucket) }
func (s *vetoSource) At(i int) (model.ProviderSnapshot, bool) {
	s.atCalls++
	if s.refuse[s.bucket[i].ID] {
		return model.ProviderSnapshot{}, false
	}
	return s.bucket[i], true
}
func (s *vetoSource) All(buf []model.ProviderSnapshot) []model.ProviderSnapshot {
	s.allCalls++
	for _, snap := range s.bucket {
		if !s.refuse[snap.ID] {
			buf = append(buf, snap)
		}
	}
	return buf
}

// TestSamplerDrawsLikeAPrefilteredSampleK: with nobody refusing, the pulled
// sample is exactly the historical "filter P_q, SampleK over it, gather" —
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
		src := &vetoSource{bucket: snaps(make([]float64, n)...)}

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

// TestSamplerFallbackIsUniformOverAccepting: when providers of the bucket
// refuse, no refuser is ever sampled, the sample has min(k, |P_q|) distinct
// members, and every accepting provider is drawn equally often — the
// optimistic draw and the fallback mix into a uniform k-subset of P_q.
func TestSamplerFallbackIsUniformOverAccepting(t *testing.T) {
	const n, k, trials = 12, 3, 60000
	src := &vetoSource{
		bucket: snaps(make([]float64, n)...),
		refuse: map[model.ProviderID]bool{1: true, 4: true, 5: true, 10: true},
	}
	accepting := n - len(src.refuse)
	rng := stats.NewRNG(3)
	var sampler Sampler
	var buf []model.ProviderSnapshot
	counts := map[model.ProviderID]int{}
	optimistic := 0
	for i := 0; i < trials; i++ {
		var population int
		buf, population = sampler.Sample(rng, src, k, buf[:0])
		if len(buf) != k {
			t.Fatalf("sampled %d, want %d", len(buf), k)
		}
		switch population {
		case n:
			optimistic++
		case accepting:
		default:
			t.Fatalf("population %d, want the bucket (%d) or P_q (%d)", population, n, accepting)
		}
		seen := map[model.ProviderID]bool{}
		for _, s := range buf {
			if src.refuse[s.ID] || seen[s.ID] {
				t.Fatalf("sample %v holds a refuser or a duplicate", buf)
			}
			seen[s.ID] = true
			counts[s.ID]++
		}
	}
	if optimistic == 0 || optimistic == trials {
		t.Fatalf("optimistic draws stood %d of %d times; the test must exercise both arms", optimistic, trials)
	}
	want := float64(trials) * k / float64(accepting)
	for id, c := range counts {
		if math.Abs(float64(c)-want) > 0.03*want {
			t.Errorf("provider %d drawn %d times, want %.0f ± 3%%", id, c, want)
		}
	}
	if len(counts) != accepting {
		t.Errorf("%d distinct providers drawn, want all %d accepting", len(counts), accepting)
	}

	// Everyone refuses: an empty P_q, reported as such.
	none := &vetoSource{bucket: snaps(0, 0), refuse: map[model.ProviderID]bool{0: true, 1: true}}
	if got, population := sampler.Sample(rng, none, 1, nil); len(got) != 0 || population != 0 {
		t.Errorf("all-refusing bucket sampled %v of population %d", got, population)
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

// TestRoundRobinSkipsRefusers: a turn that lands on a refusing provider
// rotates over the accepting providers instead; a refuser is never selected.
func TestRoundRobinSkipsRefusers(t *testing.T) {
	src := &vetoSource{bucket: snaps(0, 0, 0, 0), refuse: map[model.ProviderID]bool{1: true}}
	a := NewRoundRobin()
	served := map[model.ProviderID]int{}
	for i := 0; i < 30; i++ {
		out, err := a.Allocate(context.Background(), nil, q(1), src)
		if err != nil || out == nil {
			t.Fatalf("turn %d: %v, %v", i, out, err)
		}
		served[out.Selected[0]]++
	}
	if served[1] != 0 || len(served) != 3 {
		t.Errorf("served %v, want the three accepting providers only", served)
	}
}
