package topics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestVectorBasics(t *testing.T) {
	v := Vector{3, 4}
	if v.Dim() != 2 {
		t.Errorf("Dim = %d", v.Dim())
	}
}

func TestCosine(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		want float64
	}{
		{"aligned", Vector{1, 0}, Vector{2, 0}, 1},
		{"orthogonal", Vector{1, 0}, Vector{0, 3}, 0},
		{"opposed", Vector{1, 0}, Vector{-5, 0}, -1},
		{"zero-vector", Vector{0, 0}, Vector{1, 1}, 0},
		{"both-zero", Vector{}, Vector{}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Cosine(tt.b); !almost(got, tt.want) {
				t.Errorf("Cosine = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCosineBoundsProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		va, vb := Vector(a), Vector(b)
		for _, x := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		c := va.Cosine(vb)
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
	got := Vector{1, 2}.Add(Vector{3, 4, 5})
	want := Vector{4, 6, 5}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Fatalf("Add = %v, want %v", got, want)
		}
	}
}

func TestPreference(t *testing.T) {
	if got := Preference(Vector{1, 0}, Vector{1, 0}); got != 1 {
		t.Errorf("aligned preference = %v", got)
	}
	if got := Preference(Vector{1, 0}, Vector{-1, 0}); got != -1 {
		t.Errorf("opposed preference = %v", got)
	}
	if got := Preference(Vector{1, 2, 3}, Vector{0.1, 0.5, 0.9}); !(got >= -1 && got <= 1) {
		t.Error("preference out of range")
	}
}

func TestCampaignLifecycle(t *testing.T) {
	// The paper's pharma company: generally interested in "health" (dim 0),
	// temporarily promoting "insect repellent" (dim 2).
	in := NewInterests(Vector{1, 0, 0})
	in.AddCampaign(Campaign{Boost: Vector{0, 0, 5}, Until: 100})
	if len(in.campaigns) != 1 {
		t.Errorf("campaigns = %d", len(in.campaigns))
	}

	insectQuery := Vector{0, 0, 1}
	healthQuery := Vector{1, 0, 0}

	// During the promotion, insect-bite queries are strongly preferred.
	during := in.PreferenceAt(50, insectQuery)
	if during < 0.9 {
		t.Errorf("during campaign: preference %v, want near 1", during)
	}
	// Health queries remain positive but are no longer the focus.
	if h := in.PreferenceAt(50, healthQuery); h >= during {
		t.Errorf("campaign should dominate: health %v vs insect %v", h, during)
	}

	// After the campaign the intentions change back.
	after := in.PreferenceAt(150, insectQuery)
	if after != 0 {
		t.Errorf("after campaign: insect preference %v, want 0 (orthogonal)", after)
	}
	if h := in.PreferenceAt(150, healthQuery); h != 1 {
		t.Errorf("after campaign: health preference %v, want 1", h)
	}
}

func TestOverlappingCampaigns(t *testing.T) {
	in := NewInterests(Vector{0, 1})
	in.AddCampaign(Campaign{Boost: Vector{3, 0}, Until: 10})
	in.AddCampaign(Campaign{Boost: Vector{0, 3}, Until: 20})
	at5 := in.At(5)
	if !almost(at5[0], 3) || !almost(at5[1], 4) {
		t.Errorf("At(5) = %v", at5)
	}
	at15 := in.At(15)
	if !almost(at15[0], 0) || !almost(at15[1], 4) {
		t.Errorf("At(15) = %v", at15)
	}
	if in.String() == "" {
		t.Error("String empty")
	}
}
