package satisfaction

import (
	"testing"

	"sbqa/internal/model"
)

// TestTrackerExportRoundTripBitIdentical drives trackers through enough
// records to wrap the ring, round-trips them through export/import, and
// requires every derived value to be bit-identical — the contract the warm
// restart depends on.
func TestTrackerExportRoundTripBitIdentical(t *testing.T) {
	for _, records := range []int{0, 1, 4, 7, 13} {
		const k = 7
		ct := NewConsumer(k)
		pt := NewProvider(k)
		for i := 0; i < records; i++ {
			ct.Record(float64(i%5)/4.9, float64(i%3)/2.7, float64(i%7)/6.3)
			pt.Record(model.Intention(float64(i%9)/4.5-1), i%3 != 0)
		}

		ct2, err := NewConsumerFromState(ct.ExportState())
		if err != nil {
			t.Fatalf("records=%d: consumer import: %v", records, err)
		}
		pt2, err := NewProviderFromState(pt.ExportState())
		if err != nil {
			t.Fatalf("records=%d: provider import: %v", records, err)
		}

		if a, b := ct.Satisfaction(), ct2.Satisfaction(); a != b {
			t.Errorf("records=%d: consumer δs %v != %v", records, a, b)
		}
		if a, b := ct.Adequation(), ct2.Adequation(); a != b {
			t.Errorf("records=%d: consumer δa %v != %v", records, a, b)
		}
		if a, b := ct.AllocationSatisfaction(), ct2.AllocationSatisfaction(); a != b {
			t.Errorf("records=%d: consumer alloc-sat %v != %v", records, a, b)
		}
		if a, b := pt.Satisfaction(), pt2.Satisfaction(); a != b {
			t.Errorf("records=%d: provider δs %v != %v", records, a, b)
		}
		if a, b := pt.Adequation(), pt2.Adequation(); a != b {
			t.Errorf("records=%d: provider δa %v != %v", records, a, b)
		}
		if a, b := pt.performed, pt2.performed; a != b {
			t.Errorf("records=%d: provider performed %d != %d", records, a, b)
		}

		// The restored ring must also EVOLVE identically: record one more
		// interaction on both and compare again (the cursor position matters
		// here, not just the sums).
		ct.Record(0.3, 0.9, 0.5)
		ct2.Record(0.3, 0.9, 0.5)
		pt.Record(0.4, true)
		pt2.Record(0.4, true)
		if a, b := ct.Satisfaction(), ct2.Satisfaction(); a != b {
			t.Errorf("records=%d: post-restore consumer δs %v != %v", records, a, b)
		}
		if a, b := pt.Satisfaction(), pt2.Satisfaction(); a != b {
			t.Errorf("records=%d: post-restore provider δs %v != %v", records, a, b)
		}
	}
}

// TestTrackerImportRejectsIncoherentState: corrupt ring layouts must error,
// never build a tracker that would index out of range later.
func TestTrackerImportRejectsIncoherentState(t *testing.T) {
	cases := []ConsumerState{
		{K: 0, Next: 0}, // no window
		{K: 2, Next: 0, Records: make([]ConsumerRecordState, 3)},  // overfull
		{K: 4, Next: 4, Records: make([]ConsumerRecordState, 4)},  // cursor out of range
		{K: 4, Next: -1, Records: make([]ConsumerRecordState, 4)}, // negative cursor
		{K: 4, Next: 3, Records: make([]ConsumerRecordState, 2)},  // cursor ≠ fill point
	}
	for i, st := range cases {
		if _, err := NewConsumerFromState(st); err == nil {
			t.Errorf("case %d: expected error for %+v", i, st)
		}
		if _, err := NewProviderFromState(ProviderState{K: st.K, Next: st.Next, Records: make([]ProviderRecordState, len(st.Records))}); err == nil {
			t.Errorf("case %d: provider variant accepted %+v", i, st)
		}
	}
}

// TestRegistryStripeExportImport round-trips a populated registry through
// the per-stripe iteration into a fresh registry and compares every
// participant's derived values.
func TestRegistryStripeExportImport(t *testing.T) {
	const participants = 200
	src := NewRegistry(10)
	for i := 0; i < participants; i++ {
		ct := src.Consumer(model.ConsumerID(i))
		pt := src.Provider(model.ProviderID(i))
		for j := 0; j <= i%15; j++ {
			ct.Record(float64(j%4)/3.1, 0.8, float64(j%2))
			pt.Record(model.Intention(float64(j%5)/2.5-1), j%2 == 0)
		}
	}

	dst := NewRegistry(10)
	exported := 0
	for s := 0; s < src.Stripes(); s++ {
		src.ExportConsumerStripe(s, func(id model.ConsumerID, st ConsumerState) {
			if err := dst.ImportConsumer(id, st); err != nil {
				t.Fatalf("import consumer %d: %v", id, err)
			}
			exported++
		})
		src.ExportProviderStripe(s, func(id model.ProviderID, st ProviderState) {
			if err := dst.ImportProvider(id, st); err != nil {
				t.Fatalf("import provider %d: %v", id, err)
			}
			exported++
		})
	}
	if exported != 2*participants {
		t.Fatalf("exported %d states, want %d", exported, 2*participants)
	}
	for i := 0; i < participants; i++ {
		c, p := model.ConsumerID(i), model.ProviderID(i)
		if a, b := src.ConsumerSatisfaction(c), dst.ConsumerSatisfaction(c); a != b {
			t.Errorf("consumer %d δs: %v != %v", i, a, b)
		}
		if a, b := src.ConsumerAdequation(c), dst.ConsumerAdequation(c); a != b {
			t.Errorf("consumer %d δa: %v != %v", i, a, b)
		}
		if a, b := src.ProviderSatisfaction(p), dst.ProviderSatisfaction(p); a != b {
			t.Errorf("provider %d δs: %v != %v", i, a, b)
		}
		if a, b := src.ProviderAdequation(p), dst.ProviderAdequation(p); a != b {
			t.Errorf("provider %d δa: %v != %v", i, a, b)
		}
	}
}
