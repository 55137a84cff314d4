package satisfaction

import (
	"math"
	"sync"
	"testing"

	"sbqa/internal/model"
)

// TestRegistryConcurrentRecording drives the striped registry the way the
// sharded live engine does: several mediator shards record allocations whose
// proposal sets overlap on the same providers, while other goroutines read
// satisfactions and participants churn in and out. Run with -race.
func TestRegistryConcurrentRecording(t *testing.T) {
	r := NewRegistry(50)
	const (
		recorders   = 8
		perRecorder = 300
		providers   = 12
	)
	var wg sync.WaitGroup
	for g := 0; g < recorders; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perRecorder; i++ {
				// Every recorder proposes to the same provider trio, so the
				// stripe locks see genuine cross-shard contention.
				base := model.ProviderID(i % providers)
				a := &model.Allocation{
					Query:              model.Query{ID: model.QueryID(g*perRecorder + i), Consumer: model.ConsumerID(g), N: 1, Work: 1},
					Selected:           []model.ProviderID{base},
					Proposed:           []model.ProviderID{base, (base + 1) % providers, (base + 2) % providers},
					ConsumerIntentions: []model.Intention{0.5, 0.2, -0.1},
					ProviderIntentions: []model.Intention{0.8, 0.1, -0.5},
				}
				r.RecordAllocation(a, nil)
			}
		}()
	}
	// Concurrent readers: per-ID reads, the ID lists, and whole-registry walks
	// into buffers each reader keeps, as a stats scrape does.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var cs []Reading[model.ConsumerID]
			var ps []Reading[model.ProviderID]
			for {
				select {
				case <-stop:
					return
				default:
				}
				for p := 0; p < providers; p++ {
					s := r.ProviderSatisfaction(model.ProviderID(p))
					if s < 0 || s > 1 {
						t.Errorf("provider %d satisfaction %v out of range", p, s)
						return
					}
				}
				_ = r.ConsumerIDs()
				_ = r.ProviderIDs()
				cs = r.AppendConsumerReadings(cs[:0])
				ps = r.AppendProviderReadings(ps[:0])
				for _, rd := range cs {
					if rd.Sat < 0 || rd.Sat > 1 {
						t.Errorf("walk: consumer %d satisfaction %v out of range", rd.ID, rd.Sat)
						return
					}
				}
				for _, rd := range ps {
					if rd.Sat < 0 || rd.Sat > 1 {
						t.Errorf("walk: provider %d satisfaction %v out of range", rd.ID, rd.Sat)
						return
					}
				}
			}
		}()
	}
	// Concurrent churn on IDs outside the recorded range: trackers created
	// through Provider and Consumer, recorded into through the registry's own
	// locks and forgotten, while the walks above visit them. (A tracker
	// written through Provider would be unsynchronized by contract, so the
	// churn records through RecordAllocation.)
	var churn sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		churn.Add(1)
		go func() {
			defer churn.Done()
			id := model.ProviderID(1000 + g)
			cid := model.ConsumerID(1000 + g)
			for i := 0; i < 500; i++ {
				r.Provider(id)
				r.RecordAllocation(&model.Allocation{
					Query:              model.Query{Consumer: cid, N: 1, Work: 1},
					Selected:           []model.ProviderID{id},
					Proposed:           []model.ProviderID{id},
					ConsumerIntentions: []model.Intention{1},
					ProviderIntentions: []model.Intention{1},
				}, nil)
				r.ForgetProvider(id)
				r.Consumer(cid)
				r.ForgetConsumer(cid)
			}
		}()
	}
	wg.Wait()
	churn.Wait()
	close(stop)
	readers.Wait()

	// Every recorder consumer has a full window of outcomes.
	for g := 0; g < recorders; g++ {
		if n := r.Consumer(model.ConsumerID(g)).Interactions(); n != 50 {
			t.Errorf("consumer %d interactions = %d, want full window 50", g, n)
		}
	}
	// Providers saw proposals from all recorders; satisfaction well defined.
	for p := 0; p < providers; p++ {
		if s := r.ProviderSatisfaction(model.ProviderID(p)); s < 0 || s > 1 {
			t.Errorf("provider %d satisfaction %v", p, s)
		}
	}
}

// TestRegistryStripingPreservesSemantics checks that the striped registry
// gives byte-identical satisfactions to sequential recording (striping is a
// locking strategy, not a semantic change).
func TestRegistryStripingPreservesSemantics(t *testing.T) {
	record := func(r *Registry) {
		for i := 0; i < 40; i++ {
			a := &model.Allocation{
				Query:              model.Query{ID: model.QueryID(i), Consumer: model.ConsumerID(i % 3), N: 1, Work: 1},
				Selected:           []model.ProviderID{model.ProviderID(i % 5)},
				Proposed:           []model.ProviderID{model.ProviderID(i % 5), model.ProviderID((i + 1) % 5)},
				ConsumerIntentions: []model.Intention{model.Intention(float64(i%7)/7 - 0.4), 0.2},
				ProviderIntentions: []model.Intention{0.6, model.Intention(float64(i%3)/3 - 0.5)},
			}
			r.RecordAllocation(a, nil)
		}
	}
	r1, r2 := NewRegistry(10), NewRegistry(10)
	record(r1)
	record(r2)
	for c := 0; c < 3; c++ {
		if a, b := r1.ConsumerSatisfaction(model.ConsumerID(c)), r2.ConsumerSatisfaction(model.ConsumerID(c)); a != b {
			t.Errorf("consumer %d: %v != %v", c, a, b)
		}
	}
	for p := 0; p < 5; p++ {
		if a, b := r1.ProviderSatisfaction(model.ProviderID(p)), r2.ProviderSatisfaction(model.ProviderID(p)); a != b {
			t.Errorf("provider %d: %v != %v", p, a, b)
		}
	}
}

// TestProviderSatisfactionLockFree runs under -race: readers call
// ProviderSatisfaction, which takes no lock, while writers record into,
// forget and import the same providers. Every read is a δs in [0, 1]; once
// the writers stop, every read equals the tracker's Satisfaction() bit for
// bit, a forgotten provider reads Neutral, and an import is visible to the
// next read on the importing goroutine.
func TestProviderSatisfactionLockFree(t *testing.T) {
	const providers = 40
	r := NewRegistry(8)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for p := 0; p < providers; p++ {
					if s := r.ProviderSatisfaction(model.ProviderID(p)); !(s >= 0 && s <= 1) {
						t.Errorf("provider %d: δs %v out of range", p, s)
						return
					}
				}
			}
		}()
	}
	imported := ProviderState{K: 8, Next: 2, Records: []ProviderRecordState{{Intention: 0.9, Performed: true}, {Intention: 0.1}}}
	var writers sync.WaitGroup
	for g := 0; g < 3; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 400; i++ {
				p := model.ProviderID((i*7 + g) % providers)
				switch i % 5 {
				case 3:
					r.ForgetProvider(p)
				case 4:
					if err := r.ImportProvider(p, imported); err != nil {
						t.Error(err)
						return
					}
				default:
					r.RecordAllocation(&model.Allocation{
						Query:              model.Query{Consumer: model.ConsumerID(g), N: 1, Work: 1},
						Selected:           []model.ProviderID{p},
						Proposed:           []model.ProviderID{p, (p + 1) % providers},
						ConsumerIntentions: []model.Intention{0.5, 0.5},
						ProviderIntentions: []model.Intention{model.Intention(i%9)/4 - 1, 0.3},
					}, nil)
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	for p := model.ProviderID(0); p < providers; p++ {
		got := r.ProviderSatisfaction(p)
		want := r.Provider(p).Satisfaction()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("provider %d: lock-free δs %v, tracker %v", p, got, want)
		}
	}
	r.ForgetProvider(3)
	if got := r.ProviderSatisfaction(3); got != Neutral {
		t.Errorf("forgotten provider reads %v, want Neutral", got)
	}
	r.ForgetProvider(4)
	r.RecordAllocation(&model.Allocation{
		Query:              model.Query{N: 1, Work: 1},
		Selected:           []model.ProviderID{4},
		Proposed:           []model.ProviderID{4},
		ConsumerIntentions: []model.Intention{1},
		ProviderIntentions: []model.Intention{-1},
	}, nil)
	if got := r.ProviderSatisfaction(4); got != 0 {
		t.Fatalf("provider 4 reads %v before the import, want 0", got)
	}
	if err := r.ImportProvider(4, imported); err != nil {
		t.Fatal(err)
	}
	if got := r.ProviderSatisfaction(4); got != 0.9 {
		t.Errorf("imported provider reads %v, want 0.9", got)
	}
}
