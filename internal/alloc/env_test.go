package alloc

import (
	"context"
	"testing"

	"sbqa/internal/model"
)

// lookup reads one provider's row through the batched protocol.
func lookup(t *testing.T, e *StaticEnv, q model.Query, snap model.ProviderSnapshot) (ci, pi model.Intention, bid, satP float64) {
	t.Helper()
	kn := []model.ProviderSnapshot{snap}
	set, err := e.Intentions(context.Background(), q, kn)
	if err != nil || set.Len() != 1 || set.ImputedCount() != 0 {
		t.Fatalf("Intentions = %+v, %v", set, err)
	}
	bids, err := e.Bids(context.Background(), q, kn)
	if err != nil || len(bids) != 1 {
		t.Fatalf("Bids = %v, %v", bids, err)
	}
	sats := e.AppendProviderSatisfactions(kn, nil)
	if len(sats) != 1 {
		t.Fatalf("AppendProviderSatisfactions = %v", sats)
	}
	return set.CI[0], set.PI[0], bids[0], sats[0]
}

func TestStaticEnvDefaults(t *testing.T) {
	e := NewStaticEnv()
	query := model.Query{ID: 1, Consumer: 3, N: 1, Work: 4}
	snap := model.ProviderSnapshot{ID: 7, Capacity: 2, PendingWork: 6}
	ci, pi, bid, satP := lookup(t, e, query, snap)
	if ci != 0 {
		t.Errorf("default CI = %v, want 0", ci)
	}
	if pi != 0 {
		t.Errorf("default PI = %v, want 0", pi)
	}
	if want := 5.0; bid != want {
		t.Errorf("default bid = %v, want expected delay %v", bid, want)
	}
	if got := e.ConsumerSatisfaction(3); got != 0.5 {
		t.Errorf("default SatC = %v", got)
	}
	if satP != 0.5 {
		t.Errorf("default SatP = %v", satP)
	}
}

func TestStaticEnvSetters(t *testing.T) {
	e := NewStaticEnv()
	e.SetCI(3, 7, 0.75)
	e.SetPI(7, 3, -0.5)
	e.BidTable[7] = 42
	e.SatC[3] = 0.9
	e.SatP[7] = 0.1

	query := model.Query{ID: 1, Consumer: 3, N: 1, Work: 1}
	snap := model.ProviderSnapshot{ID: 7, Capacity: 1}
	ci, pi, bid, satP := lookup(t, e, query, snap)
	if ci != 0.75 {
		t.Errorf("CI = %v", ci)
	}
	if pi != -0.5 {
		t.Errorf("PI = %v", pi)
	}
	if bid != 42 {
		t.Errorf("bid = %v", bid)
	}
	if got := e.ConsumerSatisfaction(3); got != 0.9 {
		t.Errorf("SatC = %v", got)
	}
	if satP != 0.1 {
		t.Errorf("SatP = %v", satP)
	}

	// Setters on existing maps must not clobber other entries.
	e.SetCI(3, 8, 0.25)
	e.SetPI(7, 4, 1)
	if ci, pi, _, _ := lookup(t, e, query, snap); ci != 0.75 || pi != -0.5 {
		t.Errorf("CI/PI clobbered: %v/%v", ci, pi)
	}
}

// TestStaticEnvDoneContext: like every Env, the table environment refuses a
// batch once the mediation context is done.
func TestStaticEnvDoneContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewStaticEnv()
	kn := []model.ProviderSnapshot{{ID: 1, Capacity: 1}}
	if _, err := e.Intentions(ctx, model.Query{N: 1, Work: 1}, kn); err == nil {
		t.Error("Intentions accepted a done context")
	}
	if _, err := e.Bids(ctx, model.Query{N: 1, Work: 1}, kn); err == nil {
		t.Error("Bids accepted a done context")
	}
}
