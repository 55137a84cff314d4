package alloc

import (
	"context"

	"sbqa/internal/model"
)

// StaticEnv is a deterministic environment backed by explicit tables. It
// serves unit tests, examples, and any embedding where intentions are known
// up front rather than computed by live participant policies. The batch
// calls look the candidates up synchronously on the calling goroutine; the
// context is consulted once per call, and per-participant deadlines and
// imputation do not apply (a table cannot be silent).
//
// Missing entries fall back to zero intentions, bid = expected delay, and
// neutral satisfaction (0.5).
type StaticEnv struct {
	// CI maps consumer → provider → intention.
	CI map[model.ConsumerID]map[model.ProviderID]model.Intention
	// PI maps provider → consumer → intention.
	PI map[model.ProviderID]map[model.ConsumerID]model.Intention
	// BidTable maps provider → fixed bid; providers absent from the map
	// bid their expected completion delay for the query.
	BidTable map[model.ProviderID]float64
	// SatC and SatP hold long-run satisfactions; absent entries are 0.5.
	SatC map[model.ConsumerID]float64
	SatP map[model.ProviderID]float64
}

// NewStaticEnv returns an empty StaticEnv ready to be populated.
func NewStaticEnv() *StaticEnv {
	return &StaticEnv{
		CI:       make(map[model.ConsumerID]map[model.ProviderID]model.Intention),
		PI:       make(map[model.ProviderID]map[model.ConsumerID]model.Intention),
		BidTable: make(map[model.ProviderID]float64),
		SatC:     make(map[model.ConsumerID]float64),
		SatP:     make(map[model.ProviderID]float64),
	}
}

// SetCI records consumer c's intention toward provider p.
func (e *StaticEnv) SetCI(c model.ConsumerID, p model.ProviderID, v model.Intention) {
	m, ok := e.CI[c]
	if !ok {
		m = make(map[model.ProviderID]model.Intention)
		e.CI[c] = m
	}
	m[p] = v
}

// SetPI records provider p's intention toward consumer c's queries.
func (e *StaticEnv) SetPI(p model.ProviderID, c model.ConsumerID, v model.Intention) {
	m, ok := e.PI[p]
	if !ok {
		m = make(map[model.ConsumerID]model.Intention)
		e.PI[p] = m
	}
	m[c] = v
}

// Intentions implements Env from the CI and PI tables.
func (e *StaticEnv) Intentions(ctx context.Context, q model.Query, kn []model.ProviderSnapshot) (IntentionSet, error) {
	if err := ctx.Err(); err != nil {
		return IntentionSet{}, err
	}
	set := IntentionSet{
		CI: make([]model.Intention, len(kn)),
		PI: make([]model.Intention, len(kn)),
	}
	ci := e.CI[q.Consumer]
	for i, snap := range kn {
		set.CI[i] = ci[snap.ID]
		set.PI[i] = e.PI[snap.ID][q.Consumer]
	}
	return set, nil
}

// Bids implements Env from the bid table.
func (e *StaticEnv) Bids(ctx context.Context, q model.Query, kn []model.ProviderSnapshot) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bids := make([]float64, len(kn))
	for i, snap := range kn {
		if b, ok := e.BidTable[snap.ID]; ok {
			bids[i] = b
		} else {
			bids[i] = snap.ExpectedDelay(q.Work)
		}
	}
	return bids, nil
}

// ConsumerSatisfaction implements Env.
func (e *StaticEnv) ConsumerSatisfaction(c model.ConsumerID) float64 {
	if v, ok := e.SatC[c]; ok {
		return v
	}
	return 0.5
}

// AppendProviderSatisfactions implements Env.
func (e *StaticEnv) AppendProviderSatisfactions(kn []model.ProviderSnapshot, dst []float64) []float64 {
	for _, snap := range kn {
		if v, ok := e.SatP[snap.ID]; ok {
			dst = append(dst, v)
		} else {
			dst = append(dst, 0.5)
		}
	}
	return dst
}

var _ Env = (*StaticEnv)(nil)
