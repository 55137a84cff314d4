// Control-plane example: the self-adaptation pillar of the paper, end to
// end through the public API. An engine boots with a pathologically narrow
// declarative policy (KnBest kn = 1 — the score barely matters, so a
// consumer with a strong preference starves), and an autonomic tuner —
// watching nothing but the engine's own satisfaction snapshots — widens the
// policy until the preference is honored and satisfaction recovers. The
// same retuning is then shown done by hand with Engine.Reconfigure.
//
// Run with: go run ./examples/controlplane
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"sbqa"
)

// provider is a minimal in-process provider: constant willingness, fixed
// utilization.
type provider struct {
	id   sbqa.ProviderID
	util float64
}

func (p *provider) ProviderID() sbqa.ProviderID { return p.id }
func (p *provider) Snapshot(float64) sbqa.ProviderSnapshot {
	return sbqa.ProviderSnapshot{ID: p.id, Utilization: p.util, Capacity: 1}
}
func (p *provider) Intention(sbqa.Query) sbqa.Intention { return 0.5 }
func (p *provider) Bid(q sbqa.Query) float64            { return q.Work }

func fail(err error) {
	fmt.Fprintln(os.Stderr, "controlplane example:", err)
	os.Exit(1)
}

func main() {
	const favorite = sbqa.ProviderID(0)

	// Part 1 — the closed loop. The tuner needs the snapshot stream.
	eng, err := sbqa.NewEngine(
		sbqa.WithWindow(25),
		sbqa.WithPolicy(sbqa.PolicySpec{Name: "narrow", Kind: sbqa.PolicySbQA, K: 2, Kn: 1, Seed: 3}),
		sbqa.WithSnapshotInterval(5*time.Millisecond),
		sbqa.WithTuner(sbqa.TunerConfig{MinInterval: 10 * time.Millisecond, Hysteresis: 1, MaxK: 16, MaxKn: 8}),
	)
	if err != nil {
		fail(err)
	}
	defer eng.Close()

	// One consumer that wants exactly one provider; the favorite is the
	// busiest, so a narrow utilization-driven funnel never picks it.
	eng.RegisterConsumer(sbqa.LiveFuncConsumer{ID: 0, Fn: func(_ sbqa.Query, snap sbqa.ProviderSnapshot) sbqa.Intention {
		if snap.ID == favorite {
			return 1
		}
		return -0.9
	}})
	for i := 0; i < 8; i++ {
		util := 0.05 * float64(i)
		if sbqa.ProviderID(i) == favorite {
			util = 0.9
		}
		eng.RegisterProvider(&provider{id: sbqa.ProviderID(i), util: util})
	}

	submit := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := eng.Submit(context.Background(), sbqa.Query{Consumer: 0, N: 1, Work: 1}).Allocation(); err != nil {
				fail(err)
			}
		}
	}

	submit(40)
	fmt.Printf("under %v\n", eng.Policy())
	fmt.Printf("  starved:   δs(c) = %.3f\n", eng.ConsumerSatisfaction(0))

	// Keep traffic flowing while the MAPE-K loop widens the policy.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && eng.ConsumerSatisfaction(0) < 0.6 {
		submit(10)
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("autotuned to %v\n", eng.Policy())
	fmt.Printf("  recovered: δs(c) = %.3f after %d tuner action(s)\n",
		eng.ConsumerSatisfaction(0), eng.Tuner().Stats().Actions)

	// Part 2 — the same lever, pulled by hand: swap the whole technique.
	if err := eng.Reconfigure(context.Background(), sbqa.PolicySpec{Name: "lb", Kind: sbqa.PolicyCapacity}); err != nil {
		fail(err)
	}
	a, err := eng.Submit(context.Background(), sbqa.Query{Consumer: 0, N: 1, Work: 1}).Allocation()
	if err != nil {
		fail(err)
	}
	fmt.Printf("reconfigured to %v\n", eng.Policy())
	fmt.Printf("  capacity policy allocates to the least utilized: provider %d\n", a.Selected[0])
	fmt.Printf("  generations applied per shard: %d\n", eng.Stats().PolicySwaps())
}
