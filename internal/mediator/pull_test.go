package mediator

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sbqa/internal/alloc"
	"sbqa/internal/core"
	"sbqa/internal/directory"
	"sbqa/internal/knbest"
	"sbqa/internal/model"
	"sbqa/internal/satisfaction"
	"sbqa/internal/stats"
)

// countingProvider counts the snapshots a mediation takes of it.
type countingProvider struct {
	fakeProvider
	calls *callCounts
}

type callCounts struct{ snapshot atomic.Int64 }

func (c *callCounts) reset() { c.snapshot.Store(0) }

func (p *countingProvider) Snapshot(now float64) model.ProviderSnapshot {
	p.calls.snapshot.Add(1)
	return p.fakeProvider.Snapshot(now)
}

// TestMediationTouchesOnlyWhatItDraws is the machine-independent O(k) gate:
// however wide P_q is, one mediation snapshots only the providers its
// technique draws — k for SbQA, q.N for Random, the bid sample for Economic
// — never the bucket.
func TestMediationTouchesOnlyWhatItDraws(t *testing.T) {
	const k, kn, resultN = 20, 10, 2
	techniques := []struct {
		name  string
		build func() alloc.Allocator
		bound int64
	}{
		{"SbQA", func() alloc.Allocator {
			return core.MustNew(core.Config{KnBest: knbest.Params{K: k, Kn: kn}, Seed: 5})
		}, k},
		{"Random", func() alloc.Allocator { return alloc.NewRandom(stats.NewRNG(5)) }, resultN},
		{"Economic", func() alloc.Allocator { return alloc.NewEconomic(stats.NewRNG(5)) }, alloc.DefaultBidSample},
		{"RoundRobin", func() alloc.Allocator { return alloc.NewRoundRobin() }, resultN},
	}
	for _, width := range []int{200, 2000, 20000} {
		calls := &callCounts{}
		dir := directory.New()
		for i := 0; i < width; i++ {
			dir.RegisterProvider(&countingProvider{
				fakeProvider: fakeProvider{id: model.ProviderID(i), util: float64(i%10) / 10, intention: 0.5},
				calls:        calls,
			})
		}
		dir.RegisterConsumer(&fakeConsumer{id: 0})
		for _, tech := range techniques {
			t.Run(fmt.Sprintf("%s/%d", tech.name, width), func(t *testing.T) {
				m := New(tech.build(), Config{Window: 10, Directory: dir, Registry: satisfaction.NewRegistry(10)})
				for i := 0; i < 5; i++ {
					calls.reset()
					if _, err := m.Mediate(bg, 0, q(int64(i+1), 0, resultN)); err != nil {
						t.Fatal(err)
					}
					if s := calls.snapshot.Load(); s > tech.bound {
						t.Fatalf("mediation %d over %d providers: %d Snapshot calls, want ≤ %d",
							i, width, s, tech.bound)
					}
				}
			})
		}
	}
}

// materialising forces the pre-pull behaviour onto an allocator: snapshot
// all of P_q first, then hand the technique the finished slice — for
// SbQA, "materialise all, then Selector.Select". It is the reference the pull
// path is compared against.
type materialising struct{ inner alloc.Allocator }

func (r materialising) Name() string { return r.inner.Name() }
func (r materialising) Allocate(ctx context.Context, e alloc.Env, q model.Query, src alloc.Source) (*model.Allocation, error) {
	return r.inner.Allocate(ctx, e, q, alloc.Snapshots(src.All(nil)))
}

// differentialWorld builds a mediator over a random private directory —
// universal providers plus specialists of a few classes, with gaps in the ID
// space — as a pure function of rng, so the pull mediator and the reference
// get identical worlds from equal seeds.
func differentialWorld(rng *stats.RNG, a alloc.Allocator) (*Mediator, []model.ProviderID) {
	m := New(a, Config{Window: 15})
	var ids []model.ProviderID
	n := 1 + rng.Intn(80)
	for i := 0; i < n; i++ {
		p := &countingProvider{
			fakeProvider: fakeProvider{
				id:        model.ProviderID(2*i + 1),
				util:      float64(rng.Intn(10)) / 10,
				intention: model.Intention(rng.Float64()*2 - 1),
				bid:       rng.Float64(),
			},
			calls: &callCounts{},
		}
		if rng.Intn(3) > 0 {
			p.classes = map[int]bool{rng.Intn(3): true}
		}
		m.RegisterProvider(p)
		ids = append(ids, p.id)
	}
	likes := map[model.ProviderID]model.Intention{}
	for _, id := range ids {
		likes[id] = model.Intention(rng.Float64()*2 - 1)
	}
	m.RegisterConsumer(&fakeConsumer{id: 0, likes: likes})
	return m, ids
}

// TestPullPathMatchesMaterialisedReference is the differential oracle: over
// random directories, every technique allocates
// byte-identically through the pull path and through the materialise-first
// reference, and their random streams end in the same state.
func TestPullPathMatchesMaterialisedReference(t *testing.T) {
	build := map[string]func(seed uint64) alloc.Allocator{
		"SbQA": func(seed uint64) alloc.Allocator {
			return core.MustNew(core.Config{KnBest: knbest.Params{K: 7, Kn: 4}, Seed: seed})
		},
		"Random":     func(seed uint64) alloc.Allocator { return alloc.NewRandom(stats.NewRNG(seed)) },
		"Economic":   func(seed uint64) alloc.Allocator { return alloc.NewEconomic(stats.NewRNG(seed)) },
		"RoundRobin": func(uint64) alloc.Allocator { return alloc.NewRoundRobin() },
		"Capacity":   func(uint64) alloc.Allocator { return alloc.NewCapacity() },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			for world := uint64(0); world < 40; world++ {
				pullAlloc, refAlloc := mk(world+1), mk(world+1)
				pull, _ := differentialWorld(stats.NewRNG(1000+world), pullAlloc)
				ref, _ := differentialWorld(stats.NewRNG(1000+world), materialising{refAlloc})
				queries := stats.NewRNG(2000 + world)
				for i := 0; i < 30; i++ {
					query := q(int64(i+1), 0, 1+queries.Intn(3))
					query.Class = queries.Intn(4) // class 3 has no specialists
					got, gerr := pull.Mediate(bg, float64(i), query)
					want, werr := ref.Mediate(bg, float64(i), query)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("world %d query %d: pull err %v, reference err %v", world, i, gerr, werr)
					}
					if gerr == nil && got.String() != want.String() {
						t.Fatalf("world %d query %d:\n pull      %s\n reference %s", world, i, got, want)
					}
				}
				if ps, ok := pullAlloc.(alloc.Stateful); ok {
					if !bytes.Equal(ps.ExportState(), refAlloc.(alloc.Stateful).ExportState()) {
						t.Fatalf("world %d: allocator state diverged from the reference", world)
					}
				}
				if a, b := pull.Registry().ConsumerSatisfaction(0), ref.Registry().ConsumerSatisfaction(0); a != b {
					t.Fatalf("world %d: consumer δs %v, reference %v", world, a, b)
				}
			}
		})
	}
}

// TestPullPathNeverProposesRefuserOrDeparted: when some providers refuse the
// query's class (they declared only other classes) and others depart between
// queries, every proposal stays inside the accepting, still-registered
// providers, and a query is rejected only when that set is empty.
func TestPullPathNeverProposesRefuserOrDeparted(t *testing.T) {
	for world := uint64(0); world < 40; world++ {
		sb := core.MustNew(core.Config{KnBest: knbest.Params{K: 5, Kn: 3}, Seed: world + 1})
		m, ids := differentialWorld(stats.NewRNG(3000+world), sb)
		refuses := func(id model.ProviderID, q model.Query) bool {
			caps := m.Provider(id).(*countingProvider).classes
			return caps != nil && !caps[q.Class]
		}
		churn := stats.NewRNG(4000 + world)
		departed := map[model.ProviderID]bool{}
		for i := 0; i < 40; i++ {
			if victim := ids[churn.Intn(len(ids))]; churn.Intn(4) == 0 {
				m.UnregisterProvider(victim)
				departed[victim] = true
			}
			query := q(int64(i+1), 0, 1+churn.Intn(2))
			query.Class = churn.Intn(3)
			accepting := 0
			for _, p := range m.Directory().Candidates(query, nil) {
				if departed[p.ProviderID()] {
					t.Fatalf("world %d: departed provider %d still discoverable", world, p.ProviderID())
				}
				if refuses(p.ProviderID(), query) {
					t.Fatalf("world %d: provider %d discoverable for class %d it did not declare", world, p.ProviderID(), query.Class)
				}
				accepting++
			}
			a, err := m.Mediate(bg, float64(i), query)
			if err != nil {
				if accepting > 0 {
					t.Fatalf("world %d query %d: %v with %d accepting providers", world, i, err, accepting)
				}
				continue
			}
			if want := min(query.N, accepting); len(a.Selected) != want {
				t.Fatalf("world %d query %d: selected %d of %d accepting (n=%d)", world, i, len(a.Selected), accepting, query.N)
			}
			for _, id := range a.Proposed {
				if departed[id] || refuses(id, query) {
					t.Fatalf("world %d query %d: proposed %d (departed=%v)", world, i, id, departed[id])
				}
			}
		}
	}
}

// TestUnregisteredBeforeQueryNeverProposed runs under -race: registrars churn
// the shared directory while a mediator mediates, and a provider whose
// unregistration returned before a query started is never proposed to it.
func TestUnregisteredBeforeQueryNeverProposed(t *testing.T) {
	dir := directory.New()
	for i := 0; i < 30; i++ {
		dir.RegisterProvider(&fakeProvider{id: model.ProviderID(i), intention: 0.5})
	}
	dir.RegisterConsumer(&fakeConsumer{id: 0})
	sb := core.MustNew(core.Config{KnBest: knbest.Params{K: 40, Kn: 40}, Seed: 1})
	m := New(sb, Config{Window: 10, Directory: dir, Registry: satisfaction.NewRegistry(10)})

	stop := make(chan struct{})
	var churners sync.WaitGroup
	for w := 0; w < 3; w++ {
		churners.Add(1)
		go func(id model.ProviderID) {
			defer churners.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				dir.RegisterProvider(&fakeProvider{id: id, intention: 0.5})
				dir.UnregisterProvider(id)
			}
		}(model.ProviderID(100 + w))
	}

	const victim = model.ProviderID(50)
	for i := 0; i < 2000; i++ {
		dir.RegisterProvider(&fakeProvider{id: victim, intention: 1})
		if i%2 == 0 {
			// Let a view holding the victim get published first.
			if _, err := m.Mediate(bg, 0, q(int64(2*i), 0, 1)); err != nil {
				t.Fatal(err)
			}
		}
		dir.UnregisterProvider(victim)
		a, err := m.Mediate(bg, 0, q(int64(2*i+1), 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range a.Proposed {
			if id == victim {
				t.Fatalf("query %d proposed provider %d, unregistered before it started", i, victim)
			}
		}
	}
	close(stop)
	churners.Wait()
}
