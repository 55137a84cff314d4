package event

import (
	"errors"
	"testing"

	"sbqa/internal/model"
)

func emitAll(o Observer) {
	o.OnAllocation(&model.Allocation{}, 3)
	o.OnRejection(model.Query{}, errors.New("x"))
	o.OnDispatchFailure(model.Query{}, nil, errors.New("y"))
	o.OnProviderRegistered(1)
	o.OnProviderDeparted(1)
	o.OnConsumerRegistered(2)
	o.OnConsumerDeparted(2)
	o.OnSatisfactionSnapshot(SatisfactionSnapshot{Time: 1})
	o.OnPolicyChange(PolicyChange{Generation: 1, Kind: "sbqa", Time: 1})
	o.OnPeerChange(PeerChange{Node: "b", From: "alive", To: "suspect"})
}

func TestFuncsNilFieldsIgnored(t *testing.T) {
	emitAll(Funcs{}) // zero value: every event ignored
	var got int
	emitAll(Funcs{Allocation: func(*model.Allocation, int) { got++ }})
	if got != 1 {
		t.Errorf("Allocation fired %d times, want 1", got)
	}
}
