package knbest

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"sbqa/internal/model"
	"sbqa/internal/stats"
)

func snapshots(utils ...float64) []model.ProviderSnapshot {
	out := make([]model.ProviderSnapshot, len(utils))
	for i, u := range utils {
		out[i] = model.ProviderSnapshot{ID: model.ProviderID(i), Utilization: u, Capacity: 1}
	}
	return out
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{K: 10, Kn: 5}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if err := (Params{K: 5, Kn: 10}).Validate(); err == nil {
		t.Error("kn > k accepted")
	}
	if err := (Params{K: 0, Kn: 10}).Validate(); err != nil {
		t.Errorf("disabled stage-1 rejected: %v", err)
	}
	if DefaultParams().Validate() != nil {
		t.Error("DefaultParams invalid")
	}
	if (Params{K: 3, Kn: 2}).String() == "" {
		t.Error("String empty")
	}
}

func TestSelectSizes(t *testing.T) {
	tests := []struct {
		name    string
		k, kn   int
		nCands  int
		wantLen int
	}{
		{"normal", 4, 2, 10, 2},
		{"kn-disabled", 4, 0, 10, 4},
		{"k-disabled", 0, 3, 10, 3},
		{"k-exceeds-pop", 99, 5, 10, 5},
		{"kn-exceeds-k", 4, 99, 10, 4},
		{"both-disabled", 0, 0, 10, 10},
		{"single-candidate", 5, 3, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := NewSelector(Params{K: tt.k, Kn: tt.kn}, stats.NewRNG(1))
			cands := snapshots(make([]float64, tt.nCands)...)
			got := s.Select(cands)
			if len(got) != tt.wantLen {
				t.Errorf("got %d providers, want %d", len(got), tt.wantLen)
			}
		})
	}
}

func TestSelectEmpty(t *testing.T) {
	s := NewSelector(DefaultParams(), stats.NewRNG(1))
	if got := s.Select(nil); got != nil {
		t.Errorf("Select(nil) = %v", got)
	}
}

func TestSelectKeepsLeastUtilized(t *testing.T) {
	// With stage 1 disabled, stage 2 must return exactly the kn least
	// utilized, in increasing utilization order.
	s := NewSelector(Params{K: 0, Kn: 3}, stats.NewRNG(2))
	cands := snapshots(0.9, 0.1, 0.5, 0.3, 0.7)
	got := s.Select(cands)
	wantIDs := []model.ProviderID{1, 3, 2}
	for i, want := range wantIDs {
		if got[i].ID != want {
			t.Fatalf("Select[%d] = %d, want %d (%v)", i, got[i].ID, want, got)
		}
	}
}

func TestSelectTieBreaking(t *testing.T) {
	s := NewSelector(Params{K: 0, Kn: 2}, stats.NewRNG(3))
	cands := []model.ProviderSnapshot{
		{ID: 5, Utilization: 0.5, QueueLen: 2},
		{ID: 1, Utilization: 0.5, QueueLen: 2},
		{ID: 3, Utilization: 0.5, QueueLen: 1},
	}
	got := s.Select(cands)
	if got[0].ID != 3 { // shorter queue first
		t.Errorf("queue tie-break failed: %v", got)
	}
	if got[1].ID != 1 { // then lower ID
		t.Errorf("ID tie-break failed: %v", got)
	}
}

func TestSelectSubsetInvariant(t *testing.T) {
	// Every returned provider must come from the candidate set, no
	// duplicates, and utilizations must be sorted non-decreasing.
	rng := stats.NewRNG(4)
	s := NewSelector(Params{K: 7, Kn: 4}, stats.NewRNG(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		cands := make([]model.ProviderSnapshot, n)
		for i := range cands {
			cands[i] = model.ProviderSnapshot{ID: model.ProviderID(i), Utilization: rng.Float64()}
		}
		got := s.Select(cands)
		seen := map[model.ProviderID]bool{}
		for i, snap := range got {
			if snap.ID < 0 || int(snap.ID) >= n {
				t.Fatalf("foreign provider %d", snap.ID)
			}
			if seen[snap.ID] {
				t.Fatalf("duplicate provider %d", snap.ID)
			}
			seen[snap.ID] = true
			if i > 0 && got[i-1].Utilization > snap.Utilization {
				t.Fatalf("utilization not sorted: %v", got)
			}
		}
	}
}

func TestSelectDoesNotMutateInput(t *testing.T) {
	s := NewSelector(Params{K: 2, Kn: 1}, stats.NewRNG(6))
	cands := snapshots(0.9, 0.1, 0.5)
	_ = s.Select(cands)
	for i, u := range []float64{0.9, 0.1, 0.5} {
		if cands[i].Utilization != u || cands[i].ID != model.ProviderID(i) {
			t.Fatalf("input mutated: %v", cands)
		}
	}
}

func TestStage1Uniformity(t *testing.T) {
	// With kn disabled, each of 10 providers should appear in K=3 samples
	// with probability 3/10.
	s := NewSelector(Params{K: 3, Kn: 0}, stats.NewRNG(7))
	cands := snapshots(make([]float64, 10)...)
	counts := make([]int, 10)
	const trials = 30000
	for i := 0; i < trials; i++ {
		for _, snap := range s.Select(cands) {
			counts[snap.ID]++
		}
	}
	want := float64(trials) * 0.3
	for id, c := range counts {
		if math.Abs(float64(c)-want) > want*0.08 {
			t.Errorf("provider %d sampled %d times, want ~%.0f", id, c, want)
		}
	}
}

func TestParamsFixedAtConstruction(t *testing.T) {
	s := NewSelector(Params{K: 2, Kn: 1}, stats.NewRNG(8))
	if s.Params() != (Params{K: 2, Kn: 1}) {
		t.Errorf("Params() = %+v", s.Params())
	}
	got := s.Select(snapshots(0.1, 0.2, 0.3, 0.4))
	if len(got) != 1 {
		t.Errorf("kn = 1 kept %v", got)
	}
}

func TestNilRNGDefault(t *testing.T) {
	s := NewSelector(DefaultParams(), nil)
	if got := s.Select(snapshots(0.1, 0.2)); len(got) != 2 {
		t.Errorf("nil-rng selector broken: %v", got)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	cands := snapshots(0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.8)
	a := NewSelector(Params{K: 4, Kn: 2}, stats.NewRNG(42))
	b := NewSelector(Params{K: 4, Kn: 2}, stats.NewRNG(42))
	for i := 0; i < 100; i++ {
		ga, gb := a.Select(cands), b.Select(cands)
		for j := range ga {
			if ga[j].ID != gb[j].ID {
				t.Fatalf("selection diverged at round %d", i)
			}
		}
	}
}

// refusing is a candidate source whose odd-ID providers cannot perform the
// query; pulls counts the positions stage 1 looked at.
type refusing struct {
	bucket []model.ProviderSnapshot
	pulls  int
}

func (r *refusing) Len() int { return len(r.bucket) }
func (r *refusing) At(i int) (model.ProviderSnapshot, bool) {
	r.pulls++
	return r.bucket[i], r.bucket[i].ID%2 == 0
}
func (r *refusing) All(buf []model.ProviderSnapshot) []model.ProviderSnapshot {
	for _, s := range r.bucket {
		if s.ID%2 == 0 {
			buf = append(buf, s)
		}
	}
	return buf
}

// TestSelectFromPullsOnlyK: over a source, stage 1 looks at its k drawn
// positions only, and Select over a slice is the same draw.
func TestSelectFromPullsOnlyK(t *testing.T) {
	cands := snapshots(make([]float64, 500)...)
	for i := range cands {
		cands[i].ID *= 2 // nobody refuses
	}
	pull, slice := NewSelector(Params{K: 9, Kn: 4}, stats.NewRNG(8)), NewSelector(Params{K: 9, Kn: 4}, stats.NewRNG(8))
	src := &refusing{bucket: cands}
	for i := 0; i < 50; i++ {
		src.pulls = 0
		got, population := pull.SelectFrom(pull.Params(), src)
		want := slice.Select(cands)
		if src.pulls != 9 || population != len(cands) {
			t.Fatalf("stage 1 looked at %d positions of a population of %d, want 9 of %d", src.pulls, population, len(cands))
		}
		if len(got) != len(want) {
			t.Fatalf("SelectFrom kept %d, Select kept %d", len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("draw %d: SelectFrom %v != Select %v", i, got, want)
			}
		}
	}
	if pull.RNGState() != slice.RNGState() {
		t.Error("SelectFrom and Select left different stream positions")
	}
}

// TestSelectFromNeverKeepsRefuser: K is drawn from the providers that can
// perform the query — a refuser in the bucket is never in Kn, and Kn still
// fills from the accepting ones.
func TestSelectFromNeverKeepsRefuser(t *testing.T) {
	s := NewSelector(Params{K: 4, Kn: 3}, stats.NewRNG(9))
	src := &refusing{bucket: snapshots(make([]float64, 12)...)}
	for i := 0; i < 2000; i++ {
		kn, population := s.SelectFrom(s.Params(), src)
		if len(kn) != 3 {
			t.Fatalf("kept %d providers, want 3", len(kn))
		}
		if population != 12 && population != 6 {
			t.Fatalf("population %d, want the bucket (12) or P_q (6)", population)
		}
		for _, snap := range kn {
			if snap.ID%2 != 0 {
				t.Fatalf("refuser %d kept in Kn %v", snap.ID, kn)
			}
		}
	}
}

// TestKeepLeastMatchesStableSort: stage 2's bounded insertion keeps exactly
// the first kn of a stable sort, in its order, on samples full of ties in
// utilization and queue length — and of repeated IDs, whose order only
// stability decides (Capacity tells them apart) — on both sides of
// maxInsertKept, and leaves the sample a permutation of itself.
func TestKeepLeastMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.IntN(2*maxInsertKept)
		s := make([]model.ProviderSnapshot, n)
		for i := range s {
			s[i] = model.ProviderSnapshot{
				ID:          model.ProviderID(rng.IntN(2 * n)),
				Utilization: float64(rng.IntN(4)) / 4,
				QueueLen:    rng.IntN(3),
				Capacity:    float64(i),
			}
		}
		want := slices.Clone(s)
		sort.SliceStable(want, func(i, j int) bool { return snapLess(&want[i], &want[j]) })
		kn := 1 + rng.IntN(n)
		got := slices.Clone(s)
		kept := keepLeast(got, kn)
		if !slices.Equal(kept, want[:kn]) {
			t.Fatalf("n=%d kn=%d: kept\n%v\nwant\n%v", n, kn, kept, want[:kn])
		}
		byCapacity := func(a, b model.ProviderSnapshot) int { return int(a.Capacity - b.Capacity) }
		slices.SortFunc(got, byCapacity)
		if !slices.Equal(got, s) {
			t.Fatalf("n=%d kn=%d: the sample is no longer a permutation of itself", n, kn)
		}
	}
}
