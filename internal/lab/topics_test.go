package lab

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestCosine(t *testing.T) {
	tests := []struct {
		name string
		a, b vector
		want float64
	}{
		{"aligned", vector{1, 0}, vector{2, 0}, 1},
		{"orthogonal", vector{1, 0}, vector{0, 3}, 0},
		{"opposed", vector{1, 0}, vector{-5, 0}, -1},
		{"zero-vector", vector{0, 0}, vector{1, 1}, 0},
		{"both-zero", vector{}, vector{}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.cosine(tt.b); !almost(got, tt.want) {
				t.Errorf("Cosine = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCosineBoundsProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		va, vb := vector(a), vector(b)
		for _, x := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		c := va.cosine(vb)
		if math.IsNaN(c) {
			return false
		}
		return c >= -1 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddAndScale(t *testing.T) {
	got := vector{1, 2}.add(vector{3, 4, 5})
	want := vector{4, 6, 5}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Fatalf("Add = %v, want %v", got, want)
		}
	}
}

func TestPreference(t *testing.T) {
	if got := preference(vector{1, 0}, vector{1, 0}); got != 1 {
		t.Errorf("aligned preference = %v", got)
	}
	if got := preference(vector{1, 0}, vector{-1, 0}); got != -1 {
		t.Errorf("opposed preference = %v", got)
	}
	if got := preference(vector{1, 2, 3}, vector{0.1, 0.5, 0.9}); !(got >= -1 && got <= 1) {
		t.Error("preference out of range")
	}
}

func TestCampaignLifecycle(t *testing.T) {
	// The paper's pharma company: generally interested in "health" (dim 0),
	// temporarily promoting "insect repellent" (dim 2).
	in := newInterests(vector{1, 0, 0})
	in.addCampaign(campaign{boost: vector{0, 0, 5}, until: 100})
	if len(in.campaigns) != 1 {
		t.Errorf("campaigns = %d", len(in.campaigns))
	}

	insectQuery := vector{0, 0, 1}
	healthQuery := vector{1, 0, 0}

	// During the promotion, insect-bite queries are strongly preferred.
	during := in.preferenceAt(50, insectQuery)
	if during < 0.9 {
		t.Errorf("during campaign: preference %v, want near 1", during)
	}
	// Health queries remain positive but are no longer the focus.
	if h := in.preferenceAt(50, healthQuery); h >= during {
		t.Errorf("campaign should dominate: health %v vs insect %v", h, during)
	}

	// After the campaign the intentions change back.
	after := in.preferenceAt(150, insectQuery)
	if after != 0 {
		t.Errorf("after campaign: insect preference %v, want 0 (orthogonal)", after)
	}
	if h := in.preferenceAt(150, healthQuery); h != 1 {
		t.Errorf("after campaign: health preference %v, want 1", h)
	}
}

func TestOverlappingCampaigns(t *testing.T) {
	in := newInterests(vector{0, 1})
	in.addCampaign(campaign{boost: vector{3, 0}, until: 10})
	in.addCampaign(campaign{boost: vector{0, 3}, until: 20})
	at5 := in.at(5)
	if !almost(at5[0], 3) || !almost(at5[1], 4) {
		t.Errorf("At(5) = %v", at5)
	}
	at15 := in.at(15)
	if !almost(at15[0], 0) || !almost(at15[1], 4) {
		t.Errorf("At(15) = %v", at15)
	}
}
