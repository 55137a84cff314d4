// Live example: the SbQA mediation embedded in a real concurrent program,
// running on the asynchronous Engine API. Workers run on goroutines with
// wall-clock service times; submitters fan tickets out from several
// goroutines at once; queries route to mediator shards by consumer, so
// distinct consumers mediate in parallel while the shared satisfaction
// registry shapes who gets what. Ticket submission means nobody blocks on
// worker execution: each submitter collects its own queries' results from
// their tickets, and an Observer watches the allocation stream go by.
//
// Run with: go run ./examples/live
package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"sbqa"
)

func main() {
	// One mediator shard per CPU; the policy builds each shard its own
	// allocator, seeded Seed+shard (allocators hold sampling state and
	// cannot be shared). KnBest sized
	// for six workers: sample 4 at random, keep the 2 least loaded. The
	// random first stage is what rotates work across equally idle, equally
	// scored workers — without it, deterministic tie-breaks would starve
	// all but one generalist.
	var observed atomic.Int64
	eng, err := sbqa.NewEngine(
		sbqa.WithWindow(50),
		sbqa.WithConcurrency(runtime.GOMAXPROCS(0)),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1}),
		sbqa.WithObserver(sbqa.ObserverFuncs{
			Allocation: func(*sbqa.Allocation, int) { observed.Add(1) },
		}),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "live example:", err)
		os.Exit(1)
	}
	defer eng.Close()

	// Six workers: fast generalists, and two specialists that only want
	// class-1 ("analytics") queries.
	for i := 0; i < 6; i++ {
		i := i
		w, err := sbqa.NewLiveWorker(sbqa.ProviderID(i), 500, 256, func(q sbqa.Query) sbqa.Intention {
			specialist := i >= 4
			if specialist {
				if q.Class == 1 {
					return 0.9
				}
				return -0.6
			}
			return 0.3
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "live example:", err)
			os.Exit(1)
		}
		defer w.Close()
		eng.RegisterWorker(w)
	}

	// Two consumers: one web tier (class 0), one analytics tier (class 1).
	for c := 0; c < 2; c++ {
		eng.RegisterConsumer(sbqa.LiveFuncConsumer{
			ID: sbqa.ConsumerID(c),
			Fn: func(q sbqa.Query, snap sbqa.ProviderSnapshot) sbqa.Intention {
				// Prefer lightly loaded workers.
				return sbqa.Intention(0.8 - snap.Utilization)
			},
		})
	}

	const perConsumer = 40
	type tally struct {
		byWorker map[sbqa.ProviderID]int
		byClass  map[sbqa.ProviderID][2]int
	}
	tallies := make([]tally, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		c := c
		tallies[c] = tally{byWorker: map[sbqa.ProviderID]int{}, byClass: map[sbqa.ProviderID][2]int{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			// Nothing here waits for execution until the tickets are all in
			// flight.
			tickets := make([]*sbqa.Ticket, perConsumer)
			q := sbqa.Query{Consumer: sbqa.ConsumerID(c), Class: c, N: 1, Work: 2}
			for i := range tickets {
				tickets[i] = eng.Submit(ctx, q)
			}
			// Collect each ticket's own results — no shared channel, no
			// fan-in bookkeeping.
			for _, t := range tickets {
				results, err := t.Await(ctx)
				if err != nil {
					fmt.Fprintln(os.Stderr, "await:", err)
					return
				}
				for _, r := range results {
					tallies[c].byWorker[r.Provider]++
					cl := tallies[c].byClass[r.Provider]
					cl[r.Query.Class]++
					tallies[c].byClass[r.Provider] = cl
				}
			}
		}()
	}
	wg.Wait()

	byWorker := map[sbqa.ProviderID]int{}
	byClass := map[sbqa.ProviderID][2]int{}
	for _, tl := range tallies {
		for id, n := range tl.byWorker {
			byWorker[id] += n
		}
		for id, cl := range tl.byClass {
			agg := byClass[id]
			agg[0] += cl[0]
			agg[1] += cl[1]
			byClass[id] = agg
		}
	}

	st := eng.Stats()
	fmt.Printf("completed %d queries across 6 workers on %d mediator shard(s); observer saw %d allocations:\n",
		st.Mediations(), eng.Shards(), observed.Load())
	for i := 0; i < 6; i++ {
		id := sbqa.ProviderID(i)
		kind := "generalist"
		if i >= 4 {
			kind = "analytics specialist"
		}
		fmt.Printf("  worker %d (%-20s) served %2d  (web %2d / analytics %2d)  δs=%.3f\n",
			i, kind, byWorker[id], byClass[id][0], byClass[id][1], eng.ProviderSatisfaction(id))
	}
	fmt.Println("\nload spreads across all six workers (no starvation), while the")
	fmt.Println("score tilts analytics toward its specialists: most of their work")
	fmt.Println("is analytics even though it is only half of the overall traffic.")
	fmt.Println("When a specialist does get web work, every sampled alternative")
	fmt.Println("was worse at mediation time.")
}
