package score

import (
	"math"
	"testing"
	"testing/quick"

	"sbqa/internal/model"
)

func TestOmegaEquation2(t *testing.T) {
	tests := []struct {
		name       string
		satC, satP float64
		want       float64
	}{
		{"balanced", 0.5, 0.5, 0.5},
		{"consumer-happier", 1, 0, 1}, // all weight to provider intentions
		{"provider-happier", 0, 1, 0}, // all weight to consumer intentions
		{"slight-consumer", 0.6, 0.4, 0.6},
		{"clamped-inputs", 2, -1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Omega(tt.satC, tt.satP); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Omega(%v,%v) = %v, want %v", tt.satC, tt.satP, got, tt.want)
			}
		})
	}
}

func TestOmegaBoundsProperty(t *testing.T) {
	f := func(a, b float64) bool {
		w := Omega(a, b)
		return w >= 0 && w <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScoreDefinition3PositiveBranch(t *testing.T) {
	s := NewScorer()
	// ω=0.5: score = sqrt(pi*ci).
	if got, want := s.Score(1, 1, 0.5), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Score(1,1,.5) = %v", got)
	}
	if got, want := s.Score(0.25, 1, 0.5), 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Score(.25,1,.5) = %v, want %v", got, want)
	}
	// ω=1 ignores the consumer entirely.
	if got, want := s.Score(0.3, 0.9, 1), 0.3; math.Abs(got-want) > 1e-12 {
		t.Errorf("Score(.3,.9,1) = %v, want %v", got, want)
	}
	// ω=0 ignores the provider entirely.
	if got, want := s.Score(0.3, 0.9, 0), 0.9; math.Abs(got-want) > 1e-12 {
		t.Errorf("Score(.3,.9,0) = %v, want %v", got, want)
	}
}

func TestScoreDefinition3NegativeBranch(t *testing.T) {
	s := NewScorer() // ε = 1
	// pi = -1, ci = -1, ω = .5: -( (1+1+1)^.5 * (3)^.5 ) = -3.
	if got, want := s.Score(-1, -1, 0.5), -3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Score(-1,-1,.5) = %v, want %v", got, want)
	}
	// A zero intention routes to the negative branch (pi > 0 required).
	if got := s.Score(0, 1, 0.5); got >= 0 {
		t.Errorf("Score(0,1,.5) = %v, want negative", got)
	}
	// ε keeps the score strictly negative even at intention 1 on one side.
	if got := s.Score(1, 0, 0.5); got >= 0 {
		t.Errorf("Score(1,0,.5) = %v, want negative", got)
	}
	// Mildly negative beats strongly negative (closer to 0).
	mild := s.Score(0, 0.5, 0.5)
	harsh := s.Score(-1, -1, 0.5)
	if mild <= harsh {
		t.Errorf("mild objection %v should outrank harsh objection %v", mild, harsh)
	}
}

func TestScoreSignProperty(t *testing.T) {
	s := NewScorer()
	f := func(p, c, w float64) bool {
		pi := model.Intention(math.Mod(p, 1))
		ci := model.Intention(math.Mod(c, 1))
		omega := math.Mod(math.Abs(w), 1)
		got := s.Score(pi, ci, omega)
		if pi > 0 && ci > 0 {
			return got > 0
		}
		return got < 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScoreMonotonicityInIntentions(t *testing.T) {
	s := NewScorer()
	// Positive branch: raising either intention raises the score.
	f := func(p, c, d float64) bool {
		pi := math.Mod(math.Abs(p), 1)
		ci := math.Mod(math.Abs(c), 1)
		delta := math.Mod(math.Abs(d), 1-pi)
		if pi <= 0 || ci <= 0 || delta <= 0 {
			return true
		}
		lo := s.Score(model.Intention(pi), model.Intention(ci), 0.5)
		hi := s.Score(model.Intention(pi+delta), model.Intention(ci), 0.5)
		return hi >= lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Negative branch: a worse intention gives a more negative score.
	if !(s.Score(-0.2, 0.5, 0.5) > s.Score(-0.9, 0.5, 0.5)) {
		t.Error("negative branch not ordered by objection strength")
	}
}

func TestScorerEpsilonRepair(t *testing.T) {
	s := &Scorer{Epsilon: 0, FixedOmega: -1}
	// ε ≤ 0 must be repaired, not produce a zero score.
	if got := s.Score(1, -1, 0.5); got == 0 || math.IsNaN(got) {
		t.Errorf("Score with ε=0 mis-repaired: %v", got)
	}
}

func TestFixedScorer(t *testing.T) {
	s := NewFixedScorer(0.25)
	if s.Adaptive() {
		t.Error("fixed scorer reported adaptive")
	}
	if got := s.Omega(0.9, 0.1); got != 0.25 {
		t.Errorf("fixed Omega = %v", got)
	}
	// Constructor clamps.
	if NewFixedScorer(-3).FixedOmega != 0 || NewFixedScorer(9).FixedOmega != 1 {
		t.Error("NewFixedScorer clamping failed")
	}
	if NewScorer().String() == "" || s.String() == "" {
		t.Error("String() empty")
	}
}

func TestAdaptiveOmegaCompensatesDissatisfied(t *testing.T) {
	s := NewScorer()
	// A dissatisfied provider (δs=0.1) vs a satisfied consumer (δs=0.9):
	// ω = 0.9, so the provider's intention dominates the score.
	providerLikes := s.Score(0.9, 0.2, s.Omega(0.9, 0.1))
	consumerLikes := s.Score(0.2, 0.9, s.Omega(0.9, 0.1))
	if providerLikes <= consumerLikes {
		t.Errorf("with dissatisfied provider, provider-preferred candidate should win: %v vs %v",
			providerLikes, consumerLikes)
	}
}

// rank scores v and ranks it the way core.SbQA does — ScoreInto, then
// FlatRanker — and returns the ranked provider IDs with their ω and scores.
func rank(s *Scorer, v View) (ids []model.ProviderID, omega, scores []float64) {
	n := v.Len()
	omegaCol, scoreCol, order := make([]float64, n), make([]float64, n), make([]int, n)
	s.ScoreInto(v, omegaCol, scoreCol)
	var r FlatRanker
	r.Rank(scoreCol, v.IDs, order)
	for _, pos := range order {
		ids = append(ids, v.IDs[pos])
		omega = append(omega, omegaCol[pos])
		scores = append(scores, scoreCol[pos])
	}
	return ids, omega, scores
}

func TestRankOrdering(t *testing.T) {
	ids, _, scores := rank(NewFixedScorer(0.5), View{
		IDs:  []model.ProviderID{1, 2, 3, 4},
		PI:   []model.Intention{0.1, 0.9, -1, 0.5},
		CI:   []model.Intention{0.1, 0.9, 1, 0.5},
		SatP: make([]float64, 4),
	})
	wantOrder := []model.ProviderID{2, 4, 1, 3}
	for i, w := range wantOrder {
		if ids[i] != w {
			t.Fatalf("rank[%d] = provider %d, want %d (full: %v)", i, ids[i], w, ids)
		}
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1] {
			t.Fatalf("ranking not descending at %d", i)
		}
	}
}

func TestRankTieBreaksByID(t *testing.T) {
	ids, _, _ := rank(NewFixedScorer(0.5), View{
		IDs:  []model.ProviderID{9, 2},
		PI:   []model.Intention{0.5, 0.5},
		CI:   []model.Intention{0.5, 0.5},
		SatP: make([]float64, 2),
	})
	if ids[0] != 2 || ids[1] != 9 {
		t.Errorf("tie should break by ID: %v", ids)
	}
}

func TestRankUsesPerPairOmega(t *testing.T) {
	// Both providers equally liked by the consumer; provider 1 is starved
	// (δs = 0) and wants the query, provider 2 is satisfied (δs = 1).
	ids, omega, _ := rank(NewScorer(), View{
		IDs:  []model.ProviderID{1, 2},
		PI:   []model.Intention{0.8, 0.8},
		CI:   []model.Intention{0.5, 0.5},
		SatC: 0.5,
		SatP: []float64{0, 1},
	})
	if ids[0] != 1 {
		t.Errorf("starved provider should rank first, got %v", ids)
	}
	if !(omega[0] > omega[1]) {
		t.Errorf("starved provider should get larger ω: %v vs %v", omega[0], omega[1])
	}
}

func TestRankEmpty(t *testing.T) {
	if ids, _, _ := rank(NewScorer(), View{}); len(ids) != 0 {
		t.Errorf("ranking an empty view = %v", ids)
	}
}
