package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntentionClamp(t *testing.T) {
	tests := []struct {
		name string
		in   Intention
		want Intention
	}{
		{"below", -3, -1},
		{"lower-edge", -1, -1},
		{"inside", 0.25, 0.25},
		{"upper-edge", 1, 1},
		{"above", 7, 1},
		{"zero", 0, 0},
		{"nan", Intention(math.NaN()), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.in.Clamp(); got != tt.want {
				t.Errorf("Clamp(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestIntentionClampProperty(t *testing.T) {
	f := func(x float64) bool {
		c := Intention(x).Clamp()
		return c >= -1 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if c := Intention(math.NaN()).Clamp(); math.IsNaN(float64(c)) || c < -1 || c > 1 {
		t.Error("Clamp(NaN) is not a valid intention")
	}
}

func TestIntentionUnit(t *testing.T) {
	tests := []struct {
		in   Intention
		want float64
	}{
		{-1, 0},
		{0, 0.5},
		{1, 1},
		{0.5, 0.75},
		{-0.5, 0.25},
	}
	for _, tt := range tests {
		if got := tt.in.Unit(); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Unit(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestIntentionUnitProperty(t *testing.T) {
	// Unit maps valid intentions into [0,1] monotonically.
	f := func(a, b float64) bool {
		x := Intention(math.Mod(math.Abs(a), 2) - 1)
		y := Intention(math.Mod(math.Abs(b), 2) - 1)
		ux, uy := x.Unit(), y.Unit()
		if ux < 0 || ux > 1 || uy < 0 || uy > 1 {
			return false
		}
		if x < y && ux > uy {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueryValidate(t *testing.T) {
	valid := Query{ID: 1, Consumer: 0, N: 1, Work: 1}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	cases := []struct {
		name string
		q    Query
	}{
		{"bad-consumer", Query{ID: 1, Consumer: -1, N: 1, Work: 1}},
		{"zero-n", Query{ID: 1, Consumer: 0, N: 0, Work: 1}},
		{"negative-n", Query{ID: 1, Consumer: 0, N: -2, Work: 1}},
		{"zero-work", Query{ID: 1, Consumer: 0, N: 1, Work: 0}},
		{"negative-work", Query{ID: 1, Consumer: 0, N: 1, Work: -5}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.q.Validate(); err == nil {
				t.Errorf("Validate(%+v) = nil, want error", tt.q)
			}
		})
	}
}

func TestProviderSnapshotExpectedDelay(t *testing.T) {
	s := ProviderSnapshot{Capacity: 2, PendingWork: 6}
	if got, want := s.ExpectedDelay(4), 5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("ExpectedDelay = %v, want %v", got, want)
	}
	zero := ProviderSnapshot{Capacity: 0, PendingWork: 10}
	if got := zero.ExpectedDelay(4); got != 0 {
		t.Errorf("ExpectedDelay with zero capacity = %v, want 0", got)
	}
}

func TestAllocationSelectedContains(t *testing.T) {
	a := &Allocation{
		Query:              Query{ID: 9, Consumer: 1, N: 1, Work: 1},
		Selected:           []ProviderID{2},
		Proposed:           []ProviderID{2, 5, 7},
		ConsumerIntentions: []Intention{0.5, -0.25, 1},
		ProviderIntentions: []Intention{0.75, 0, -1},
	}
	if !a.SelectedContains(2) {
		t.Error("SelectedContains(2) = false, want true")
	}
	if a.SelectedContains(5) {
		t.Error("SelectedContains(5) = true, want false")
	}
	if s := a.String(); s == "" {
		t.Error("String() empty")
	}
}
