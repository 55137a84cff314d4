package sbqa

// Control-plane benchmarks, part of the committed BENCH_core.json baseline:
// PolicyBuild measures the declarative construction path (spec → validated
// per-shard allocator), ReconfigureUnderLoad measures a hot policy swap
// while concurrent Submit traffic keeps every shard busy — the cost an
// operator (or the autotuner) pays per reconfiguration, and indirectly the
// proof that the epoch swap stays off the mediation hot path.

import (
	"context"
	"sync"
	"testing"

	"sbqa/internal/policy"
)

func BenchmarkPolicyBuild(b *testing.B) {
	spec := PolicySpec{Kind: PolicySbQA, K: 20, Kn: 10, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Build(i % 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconfigureUnderLoad(b *testing.B) {
	eng, err := NewEngine(
		WithWindow(50),
		WithConcurrency(4),
		WithPolicy(PolicySpec{Kind: PolicySbQA, K: 6, Kn: 3, Seed: 1}),
		WithQueueDepth(512),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 8; i++ {
		eng.RegisterProvider(&sweepProvider{id: ProviderID(i)})
	}
	const consumers = 4
	for c := 0; c < consumers; c++ {
		eng.RegisterConsumer(LiveFuncConsumer{ID: ConsumerID(c), Fn: sweepConsumerFn})
	}

	specs := []PolicySpec{
		{Kind: PolicySbQA, K: 6, Kn: 3, Seed: 1},
		{Kind: PolicySbQA, K: 8, Kn: 4, OmegaMode: policy.OmegaFixed, Omega: 0.5, Seed: 2},
	}
	swaps := 0
	reconfigure := func() {
		if err := eng.Reconfigure(context.Background(), specs[swaps%len(specs)]); err != nil {
			b.Fatal(err)
		}
		swaps++
	}
	// allocs/op is Reconfigure's own, read while the engine is still quiet.
	// The runtime counts allocations process-wide, so under load the op is
	// charged whatever the background submitters allocate while it runs (60
	// to 190 allocs/op on one commit, one machine) and CI's exact gate on
	// this figure would compare scheduling, not code. B/op keeps the
	// process-wide reading.
	own := testing.AllocsPerRun(100, reconfigure)

	// Background load: every shard mediates continuously until the bench
	// stops, so each measured Reconfigure lands under live traffic.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qs := [...]Query{
				{Consumer: ConsumerID(c), N: 1, Work: 1},
				{Consumer: ConsumerID(c), N: 1, Work: 2},
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				var tickets [len(qs)]*Ticket
				for i, q := range qs {
					tickets[i] = eng.Submit(context.Background(), q)
				}
				for _, tk := range tickets {
					tk.Allocation()
				}
			}
		}(c)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reconfigure()
	}
	b.StopTimer()
	b.ReportMetric(own, "allocs/op")
	close(stop)
	wg.Wait()
}
