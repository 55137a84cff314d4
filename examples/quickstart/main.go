// Quickstart: build the SbQA allocator, a mediator, and a handful of
// participants; mediate a stream of queries; watch satisfaction-adaptive
// balancing at work.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"sbqa"
)

// buyer is a consumer that prefers cheap-and-cheerful providers 0 and 1.
type buyer struct{ id sbqa.ConsumerID }

func (b buyer) ConsumerID() sbqa.ConsumerID { return b.id }

func (b buyer) Intention(q sbqa.Query, snap sbqa.ProviderSnapshot) sbqa.Intention {
	if snap.ID <= 1 {
		return 0.9 // loves the first two providers
	}
	return 0.1 // lukewarm about the rest
}

// seller is a provider with a private preference per consumer and a simple
// work queue abstraction (pendingWork drives its snapshot).
type seller struct {
	id          sbqa.ProviderID
	preference  sbqa.Intention
	pendingWork float64
}

func (s *seller) ProviderID() sbqa.ProviderID { return s.id }

func (s *seller) Snapshot(now float64) sbqa.ProviderSnapshot {
	util := s.pendingWork / 100
	if util > 1 {
		util = 1
	}
	return sbqa.ProviderSnapshot{
		ID: s.id, Utilization: util, Capacity: 1, PendingWork: s.pendingWork,
	}
}

func (s *seller) Intention(sbqa.Query) sbqa.Intention { return s.preference }
func (s *seller) Bid(q sbqa.Query) float64            { return s.pendingWork + q.Work }

func main() {
	// KnBest sized for six sellers: consider everyone (k=6), keep the 3
	// least-loaded (kn=3), then let the satisfaction-adaptive score choose.
	allocator := sbqa.NewSbQA(sbqa.SbQAConfig{KnBest: sbqa.KnBestParams{K: 6, Kn: 3}})
	med := sbqa.NewMediator(allocator, sbqa.MediatorConfig{Window: 50})

	med.RegisterConsumer(buyer{id: 0})
	sellers := make([]*seller, 6)
	for i := range sellers {
		// Even-indexed sellers want this buyer's queries, odd ones don't.
		pref := sbqa.Intention(0.8)
		if i%2 == 1 {
			pref = -0.4
		}
		sellers[i] = &seller{id: sbqa.ProviderID(i), preference: pref}
		med.RegisterProvider(sellers[i])
	}

	fmt.Println("mediating 60 queries with the satisfaction-adaptive SbQA process…")
	counts := map[sbqa.ProviderID]int{}
	for i := 0; i < 60; i++ {
		a, err := med.Mediate(context.Background(), float64(i), sbqa.Query{Consumer: 0, N: 1, Work: 10})
		if err != nil {
			fmt.Println("mediation failed:", err)
			return
		}
		winner := a.Selected[0]
		counts[winner]++
		sellers[winner].pendingWork += 40
		// Queues drain between queries (each seller works off a slice).
		for _, s := range sellers {
			s.pendingWork -= 15
			if s.pendingWork < 0 {
				s.pendingWork = 0
			}
		}
	}

	fmt.Println("\nqueries per seller (the buyer loves sellers 0-1; even-indexed")
	fmt.Println("sellers want the work, odd-indexed ones object to it):")
	for i, s := range sellers {
		reg := med.Registry()
		fmt.Printf("  seller %d: %2d queries   δs(p)=%.3f   preference=%+.1f\n",
			i, counts[s.id], reg.ProviderSatisfaction(s.id), float64(s.preference))
	}
	fmt.Printf("\nbuyer satisfaction δs(c) = %.3f\n", med.Registry().ConsumerSatisfaction(0))
	fmt.Println("\nthe work rotates over the willing sellers (0, 2, 4): KnBest's")
	fmt.Println("utilization stage shares load, the score respects both sides'")
	fmt.Println("interests, and objecting sellers are never forced to serve.")
}
