package persist

import (
	"errors"
	"testing"

	"sbqa/internal/event"
	"sbqa/internal/mediator"
	"sbqa/internal/model"
)

// TestRecorderForwardsEveryEvent: a recorder passes each of the twelve
// events on to the observer it embeds exactly once, and still journals the
// five it owns — an allocation, a capacity rejection, both departures and a
// policy change.
func TestRecorderForwardsEveryEvent(t *testing.T) {
	_, _, st := replayAll(t, t.TempDir())
	got := map[string]int{}
	count := func(name string) { got[name]++ }
	next := event.Funcs{
		Allocation:           func(*model.Allocation, int) { count("Allocation") },
		Rejection:            func(model.Query, error) { count("Rejection") },
		DispatchFailure:      func(model.Query, *model.Allocation, error) { count("DispatchFailure") },
		ProviderRegistered:   func(model.ProviderID) { count("ProviderRegistered") },
		ProviderDeparted:     func(model.ProviderID) { count("ProviderDeparted") },
		ConsumerRegistered:   func(model.ConsumerID) { count("ConsumerRegistered") },
		ConsumerDeparted:     func(model.ConsumerID) { count("ConsumerDeparted") },
		IntentionImputed:     func(event.Imputation) { count("IntentionImputed") },
		Shed:                 func(event.Shed) { count("Shed") },
		SatisfactionSnapshot: func(event.SatisfactionSnapshot) { count("SatisfactionSnapshot") },
		PolicyChange:         func(event.PolicyChange) { count("PolicyChange") },
		PeerChange:           func(event.PeerChange) { count("PeerChange") },
	}
	rec := st.NewRecorder(next)
	rec.SetPolicySource(func() (uint64, []byte, bool) { return 1, []byte(`{"kind":"sbqa"}`), true })
	rec.Start()

	var o event.Observer = rec
	a := &model.Allocation{Query: model.Query{ID: 1, N: 1}, Proposed: []model.ProviderID{1}, Selected: []model.ProviderID{1},
		ConsumerIntentions: []model.Intention{1}, ProviderIntentions: []model.Intention{1}}
	o.OnAllocation(a, 1)
	o.OnRejection(model.Query{ID: 2, N: 1}, mediator.ErrNoCandidates)
	o.OnDispatchFailure(model.Query{ID: 3}, nil, errors.New("refused"))
	o.OnProviderRegistered(1)
	o.OnProviderDeparted(1)
	o.OnConsumerRegistered(2)
	o.OnConsumerDeparted(2)
	o.OnIntentionImputed(event.Imputation{Provider: 1})
	o.OnShed(event.Shed{Reason: "brownout"})
	o.OnSatisfactionSnapshot(event.SatisfactionSnapshot{Time: 1})
	o.OnPolicyChange(event.PolicyChange{Generation: 1, Kind: "sbqa"})
	o.OnPeerChange(event.PeerChange{Node: "b", From: "alive", To: "down"})
	rec.Close()

	if len(got) != 12 {
		t.Errorf("%d of 12 event kinds reached the embedded observer: %v", len(got), got)
	}
	for name, n := range got {
		if n != 1 {
			t.Errorf("%s reached the embedded observer %d times, want 1", name, n)
		}
	}
	if stats := rec.Stats(); stats.RecordsAppended != 5 || stats.RecordsDropped != 0 {
		t.Errorf("journaled %d records (%d dropped), want 5 and 0", stats.RecordsAppended, stats.RecordsDropped)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
