package sbqa_test

import (
	"context"
	"fmt"

	"sbqa"
	"sbqa/internal/score"
)

// exampleConsumer wants provider 1 and dislikes provider 0.
type exampleConsumer struct{}

func (exampleConsumer) ConsumerID() sbqa.ConsumerID { return 0 }
func (exampleConsumer) Intention(_ sbqa.Query, snap sbqa.ProviderSnapshot) sbqa.Intention {
	if snap.ID == 1 {
		return 0.9
	}
	return -0.4
}

// exampleProvider wants every query equally.
type exampleProvider struct{ id sbqa.ProviderID }

func (p exampleProvider) ProviderID() sbqa.ProviderID { return p.id }
func (p exampleProvider) Snapshot(float64) sbqa.ProviderSnapshot {
	return sbqa.ProviderSnapshot{ID: p.id, Capacity: 1}
}
func (p exampleProvider) Intention(sbqa.Query) sbqa.Intention { return 0.5 }
func (p exampleProvider) Bid(q sbqa.Query) float64            { return q.Work }

// Example shows the minimal mediation flow: one consumer, two providers,
// one query allocated by the satisfaction-based process.
func Example() {
	med := sbqa.NewMediator(sbqa.NewSbQA(sbqa.SbQAConfig{}), sbqa.MediatorConfig{Window: 10})
	med.RegisterConsumer(exampleConsumer{})
	med.RegisterProvider(exampleProvider{id: 0})
	med.RegisterProvider(exampleProvider{id: 1})

	a, err := med.Mediate(context.Background(), 0, sbqa.Query{Consumer: 0, N: 1, Work: 5})
	if err != nil {
		fmt.Println("mediation failed:", err)
		return
	}
	fmt.Println("allocated to provider", a.Selected[0])
	// Output: allocated to provider 1
}

// ExampleOmega shows the adaptive balance of Equation 2 (internal/score,
// which the allocator applies per candidate): the less satisfied side gets
// the louder voice.
func ExampleOmega() {
	fmt.Printf("%.2f\n", score.Omega(0.5, 0.5)) // balanced
	fmt.Printf("%.2f\n", score.Omega(0.9, 0.1)) // starved provider: its intention dominates
	fmt.Printf("%.2f\n", score.Omega(0.1, 0.9)) // starved consumer: its intention dominates
	// Output:
	// 0.50
	// 0.90
	// 0.10
}

// ExampleScorer shows Definition 3: mutual interest scores positively,
// any objection routes to the negative branch.
func ExampleScorer() {
	s := score.NewScorer()
	fmt.Printf("%.2f\n", s.Score(1, 1, 0.5))
	fmt.Printf("%.2f\n", s.Score(0.25, 1, 0.5))
	fmt.Printf("%.2f\n", s.Score(-1, -1, 0.5))
	// Output:
	// 1.00
	// 0.50
	// -3.00
}

// ExampleRunScenario runs a miniature BOINC world under SbQA, on the real
// engine under a virtual clock, and prints whether any volunteer left.
func ExampleRunScenario() {
	sc := sbqa.Volunteering(30, 300, 1)
	sc.Workload.Volunteers.Autonomous = true
	r, err := sbqa.RunScenario(sc)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("departures:", r.Volunteers.ProvidersLeft)
	// Output: departures: 1
}
