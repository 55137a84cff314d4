package score

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"sbqa/internal/model"
)

// literalOrder is the reference ranking: the literal Definition 3 score of
// every position, then a stable sort by score descending and ID ascending.
func literalOrder(s *Scorer, v View) (order []int, omega []float64) {
	omega = make([]float64, v.Len())
	scores := make([]float64, v.Len())
	s.ScoreInto(v, omega, scores)
	order = make([]int, v.Len())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case scores[a] > scores[b]:
			return -1
		case scores[a] < scores[b]:
			return 1
		}
		return cmp.Compare(v.IDs[a], v.IDs[b])
	})
	return order, omega
}

// nearTies decodes fuzz bytes into a scoring view biased toward the inputs
// where the key order and the literal order could part: equal intentions,
// intentions one ulp apart, p or c exactly 0 (the branch boundary), equal
// satisfactions, and a few fixed balances and ε values.
type nearTies struct{ data []byte }

func (d *nearTies) byte() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *nearTies) float() float64 {
	var raw [8]byte
	d.data = d.data[copy(raw[:], d.data):]
	return float64(binary.LittleEndian.Uint64(raw[:])>>11) / (1 << 53)
}

// value picks a number in [-1, 1] related to prev.
func (d *nearTies) value(prev float64) float64 {
	switch d.byte() % 8 {
	case 0:
		return prev
	case 1:
		return math.Nextafter(prev, 2)
	case 2:
		return math.Nextafter(prev, -2)
	case 3:
		return 0
	case 4:
		return []float64{1, -1, 0.5, -0.5, 0.25, 1e-6, -1e-6, 0.1}[d.byte()%8]
	case 5:
		return -prev
	default:
		return 2*d.float() - 1
	}
}

func (d *nearTies) view(n int) View {
	v := View{
		IDs:  make([]model.ProviderID, n),
		PI:   make([]model.Intention, n),
		CI:   make([]model.Intention, n),
		SatC: []float64{0, 0.5, 1, 0.25}[d.byte()%4],
		SatP: make([]float64, n),
	}
	var pi, ci, sat float64
	for i := 0; i < n; i++ {
		pi, ci = d.value(pi), d.value(ci)
		if b := d.byte(); b%4 == 0 {
			sat = d.float()
		} else if b%4 == 1 {
			sat = []float64{0, 0.5, 1}[b/4%3]
		}
		v.PI[i], v.CI[i], v.SatP[i] = model.Intention(pi), model.Intention(ci), sat
		v.IDs[i] = model.ProviderID(int(d.byte()%64) + 64*i) // distinct, not ascending
		if d.byte()%16 == 0 && i > 0 {
			v.IDs[i] = v.IDs[i-1] // a duplicate ID: ties fall to position
		}
	}
	return v
}

// FuzzRankMatchesLiteral checks the log-key ranker against the literal
// ranking — Definition 3 scores, then a stable sort by score and ID — on
// inputs biased toward near-ties. The permutation and the ω column must be
// identical, whatever the balance rule and ε.
func FuzzRankMatchesLiteral(f *testing.F) {
	f.Add(uint8(10), uint8(0), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add(uint8(8), uint8(2), uint8(1), []byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 5, 5, 5})
	f.Add(uint8(16), uint8(1), uint8(3), []byte{3, 3, 4, 4, 1, 1, 2, 2, 0, 0, 6, 6, 7, 7, 5, 5, 4, 3, 2, 1})
	f.Add(uint8(5), uint8(3), uint8(5), []byte{4, 1, 4, 2, 4, 0, 4, 3, 4, 5, 4, 6, 4, 7})
	f.Fuzz(func(t *testing.T, n, omegaRule, epsRule uint8, data []byte) {
		d := &nearTies{data: data}
		var s *Scorer
		switch omegaRule % 5 {
		case 0:
			s = NewScorer()
		case 1:
			s = NewFixedScorer(0)
		case 2:
			s = NewFixedScorer(0.5)
		case 3:
			s = NewFixedScorer(1)
		default:
			s = NewFixedScorer(d.float())
		}
		s.Epsilon = []float64{1, 0.5, 2, 1e-9, 1e-30, 1e30, 0, d.float()}[epsRule%8]
		v := d.view(1 + int(n)%24)

		want, wantOmega := literalOrder(s, v)
		omega := make([]float64, v.Len())
		order := make([]int, v.Len())
		var r Ranker
		r.Rank(s, v, omega, order)
		if !slices.Equal(order, want) {
			t.Fatalf("key order %v, literal order %v\nview %+v ε %v", order, want, v, s.Epsilon)
		}
		for i := range omega {
			if math.Float64bits(omega[i]) != math.Float64bits(wantOmega[i]) {
				t.Fatalf("position %d: ω %v, ScoreInto's %v", i, omega[i], wantOmega[i])
			}
		}
	})
}

// TestRankerReusesScratch: a Ranker ranks views of any size in turn, and
// ranking allocates nothing once its scratch has grown.
func TestRankerReusesScratch(t *testing.T) {
	s := NewScorer()
	var r Ranker
	for _, n := range []int{3, 12, 1, 12} {
		d := &nearTies{data: []byte{9, 9, 9, 3, 4, 0, 1, 2, 9, 9, 7, 7, 6, 6, 1, 1, 0, 0}}
		v := d.view(n)
		want, _ := literalOrder(s, v)
		omega, order := make([]float64, n), make([]int, n)
		r.Rank(s, v, omega, order)
		if !slices.Equal(order, want) {
			t.Fatalf("n=%d: key order %v, literal order %v", n, order, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { r.Rank(s, v, omega, order) }); allocs != 0 {
			t.Fatalf("n=%d: Rank allocates %v times", n, allocs)
		}
	}
}
